#!/usr/bin/env bash
# Configure the ThreadSanitizer build tree, build the whole tree and run
# every `tsan`-labeled suite (the labels in tests/CMakeLists.txt are the only
# list: an unbuilt gtest target would register an unlabeled placeholder
# instead of its cases). Usage: scripts/tsan.sh [build-dir] (default:
# build-tsan). Extra safety: TSAN_OPTIONS makes any race a hard failure.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Tsan
cmake --build "$build_dir" -j "$(nproc)"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$build_dir" -L tsan --output-on-failure
