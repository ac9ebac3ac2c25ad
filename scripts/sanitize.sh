#!/usr/bin/env bash
# Address+UB sanitizer flow: configure the Sanitize build tree, build the
# whole tree and run every `sanitize`-labeled suite (the labels in
# tests/CMakeLists.txt are the only list: an unbuilt gtest target would
# register an unlabeled placeholder instead of its cases).
#
# Usage: scripts/sanitize.sh [build-dir] (default: build-sanitize).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-sanitize"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Sanitize
cmake --build "$build_dir" -j "$(nproc)"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$build_dir" -L sanitize --output-on-failure
