#!/usr/bin/env bash
# Address+UB sanitizer flow: configure the Sanitize build tree and run the
# `sanitize`-labeled test subset (numeric kernels, fault matrix, mm::obs
# aggregation).
#
# Usage: scripts/sanitize.sh [build-dir] (default: build-sanitize).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-sanitize"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Sanitize
cmake --build "$build_dir" -j --target \
  test_pearson test_maronna test_correlation test_windows test_psd \
  test_corr_engine test_corr_kernels test_faults test_obs
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$build_dir" -L sanitize --output-on-failure
