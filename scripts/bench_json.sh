#!/usr/bin/env bash
# Build and run the benchmarks behind the committed BENCH_*.json files at the
# repo root (google-benchmark JSON), one file per name:
#   corr   — correlation kernels, including the universe-scaling entries
#            (BM_MatrixScaling*: full-matrix Pearson and Maronna at
#            n = 61/250/1000/2000, scalar vs AVX2 kernel level, and AVX-512
#            for Maronna); the big
#            universes run a fixed two iterations, so expect this one to take
#            a couple of minutes;
#   obs    — mm::obs hot paths;
#   mpmini — mpmini transport hot paths;
#   svc    — backtest service: cold vs memoized 4-paramset sweeps (the
#            multi-tenant amortization factor) and the warm CorrStore/DayCache
#            acquire costs;
#   wire   — mmq wire format: quote parse throughput (budgeted at > 10 M
#            quotes/s), the carry-buffer straddle path, encode throughput and
#            whole-session loopback TCP day fetches.
# Usage: scripts/bench_json.sh [build-dir] [corr|obs|mpmini|svc|wire ...]
# (default build dir: build; no names regenerates all five files).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
names="corr obs mpmini svc wire"
build_dir="$repo_root/build"
# A first argument that is not a file name is the build dir; it must exist
# or contain a '/', so a misspelt name is rejected below instead of
# configuring a new tree.
if [[ $# -gt 0 && " $names " != *" $1 "* && ( -d $1 || $1 == */* ) ]]; then
  build_dir=$1
  shift
fi

targets=(bench_json)
if [[ $# -eq 0 ]]; then
  set -- $names
else
  targets=()
  for name; do
    if [[ " $names " != *" $name "* ]]; then
      echo "bench_json.sh: unknown benchmark file '$name' (want one of: $names)" >&2
      exit 2
    fi
    targets+=("bench_json_$name")
  done
fi

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target "${targets[@]}"
for name; do echo "Wrote $repo_root/BENCH_$name.json"; done
