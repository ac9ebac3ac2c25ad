#!/usr/bin/env bash
# Build and run the correlation-kernel, mm::obs and mpmini-transport
# benchmarks, writing google-benchmark JSON to BENCH_corr.json, BENCH_obs.json
# and BENCH_mpmini.json at the repo root. BENCH_corr.json includes the
# universe-scaling entries (BM_MatrixScaling*: full-matrix Pearson and
# Maronna at n = 61/250/1000/2000, scalar vs AVX2 kernel level) — the big
# universes run a fixed two iterations, so expect the correlation pass to
# take a couple of minutes. BENCH_svc.json adds the backtest-service numbers:
# cold vs memoized 4-paramset sweeps (the multi-tenant amortization factor)
# and the warm CorrStore/DayCache acquire costs. BENCH_wire.json adds the mmq
# wire-format numbers: single-threaded quote parse throughput (budgeted at
# > 10 M quotes/s), the carry-buffer straddle path, encode throughput, and
# whole-session loopback TCP day fetches.
# Usage: scripts/bench_json.sh [build-dir] (default: build).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target bench_json
echo "Wrote $repo_root/BENCH_corr.json, $repo_root/BENCH_obs.json, $repo_root/BENCH_mpmini.json, $repo_root/BENCH_svc.json and $repo_root/BENCH_wire.json"
