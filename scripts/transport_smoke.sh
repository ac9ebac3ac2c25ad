#!/usr/bin/env bash
# Transport smoke: the two wire-subsystem end-to-end demos CI runs.
#
#   pipeline_2proc — the full pair-trading graph with one OS process per rank
#                    over the TCP socket transport; asserts the master report
#                    is bit-identical to the in-process run.
#   feed_demo      — a synthetic day streamed over the mmq wire format on a
#                    TCP session (subscribe/stream/end_of_day), verified
#                    quote-for-quote.
#
# Usage: scripts/transport_smoke.sh [build-dir] (default: build).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target pipeline_2proc feed_demo

"$build_dir/examples/pipeline_2proc" | tee /dev/stderr | grep -q PIPELINE_2PROC_OK
"$build_dir/examples/feed_demo" | tee /dev/stderr | grep -q FEED_DEMO_OK
echo "transport smoke OK"
