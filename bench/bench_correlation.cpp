// Microbenchmarks for the correlation engines — the paper's computational
// core. Covers: batch vs incremental Pearson (ablation of design decision 1),
// Maronna cost vs window length M, and full-matrix step cost vs universe
// size.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"
#include "stats/corr_engine.hpp"
#include "stats/ewma.hpp"
#include "stats/psd.hpp"
#include "stats/rank_corr.hpp"
#include "stats/simd.hpp"

namespace {

using namespace mm::stats;

std::vector<std::vector<double>> factor_stream(std::size_t symbols, std::size_t steps,
                                               std::uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<std::vector<double>> out(steps, std::vector<double>(symbols));
  for (auto& step : out) {
    const double f = rng.normal();
    for (auto& r : step) r = 1e-4 * (0.6 * f + rng.normal());
  }
  return out;
}

void BM_PearsonBatch(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  mm::Rng rng(1);
  std::vector<double> x(m), y(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  for (auto _ : state) benchmark::DoNotOptimize(pearson(x.data(), y.data(), m));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PearsonBatch)->Arg(50)->Arg(100)->Arg(200);

void BM_PearsonSlidingPush(benchmark::State& state) {
  // The O(1) incremental update — compare against BM_PearsonBatch at the
  // same M to see the ablation of design decision 1.
  const auto m = static_cast<std::size_t>(state.range(0));
  SlidingPearson sp(m);
  mm::Rng rng(2);
  for (std::size_t i = 0; i < m; ++i) sp.push(rng.normal(), rng.normal());
  double x = 0.1, y = -0.1;
  for (auto _ : state) {
    sp.push(x, y);
    benchmark::DoNotOptimize(sp.correlation());
    std::swap(x, y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PearsonSlidingPush)->Arg(50)->Arg(100)->Arg(200);

void BM_Maronna(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  mm::Rng rng(3);
  std::vector<double> x(m), y(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double f = rng.normal();
    x[i] = 0.7 * f + rng.normal();
    y[i] = 0.7 * f + rng.normal();
  }
  for (auto _ : state) benchmark::DoNotOptimize(maronna(x.data(), y.data(), m));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Maronna)->Arg(50)->Arg(100)->Arg(200);

void BM_Spearman(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  mm::Rng rng(8);
  std::vector<double> x(m), y(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  for (auto _ : state) benchmark::DoNotOptimize(spearman(x.data(), y.data(), m));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Spearman)->Arg(50)->Arg(100)->Arg(200);

void BM_KendallTau(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  mm::Rng rng(9);
  std::vector<double> x(m), y(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  for (auto _ : state) benchmark::DoNotOptimize(kendall_tau(x.data(), y.data(), m));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KendallTau)->Arg(50)->Arg(100)->Arg(200);

void BM_EwmaCorrelationPush(benchmark::State& state) {
  EwmaCorrelation ewma(0.99);
  mm::Rng rng(10);
  for (int i = 0; i < 200; ++i) ewma.push(rng.normal(), rng.normal());
  double x = 0.3, y = -0.2;
  for (auto _ : state) {
    ewma.push(x, y);
    benchmark::DoNotOptimize(ewma.correlation());
    std::swap(x, y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EwmaCorrelationPush);

void BM_MatrixStepPearson(benchmark::State& state) {
  // Full market-wide matrix per interval, incremental Pearson: the engine's
  // steady-state cost as the universe grows.
  const auto n = static_cast<std::size_t>(state.range(0));
  CorrEngineConfig cfg;
  cfg.type = Ctype::pearson;
  cfg.window = 100;
  CorrelationCalculator calc(cfg, n);
  const auto stream = factor_stream(n, 160, 4);
  for (const auto& r : stream) calc.push(r);
  std::size_t next = 0;
  for (auto _ : state) {
    calc.push(stream[next]);
    next = (next + 1) % stream.size();
    benchmark::DoNotOptimize(calc.matrix());
  }
  state.SetItemsProcessed(state.iterations() * (n * (n - 1) / 2));
}
BENCHMARK(BM_MatrixStepPearson)->Arg(10)->Arg(20)->Arg(61);

void BM_MatrixStepMaronna(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 100;
  CorrelationCalculator calc(cfg, n);
  const auto stream = factor_stream(n, 160, 5);
  for (const auto& r : stream) calc.push(r);
  std::size_t next = 0;
  for (auto _ : state) {
    calc.push(stream[next]);
    next = (next + 1) % stream.size();
    benchmark::DoNotOptimize(calc.matrix());
  }
  state.SetItemsProcessed(state.iterations() * (n * (n - 1) / 2));
}
BENCHMARK(BM_MatrixStepMaronna)->Arg(10)->Arg(20);

// Full-matrix Maronna step at the paper's full scale (n up to 61 symbols,
// M = 120): the headline Maronna numbers for BENCH_corr.json.
void BM_MatrixStepMaronnaCold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 120;
  CorrelationCalculator calc(cfg, n);
  const auto stream = factor_stream(n, 200, 5);
  for (const auto& r : stream) calc.push(r);
  std::size_t next = 0;
  for (auto _ : state) {
    calc.push(stream[next]);
    next = (next + 1) % stream.size();
    benchmark::DoNotOptimize(calc.matrix());
  }
  state.SetItemsProcessed(state.iterations() * (n * (n - 1) / 2));
}
BENCHMARK(BM_MatrixStepMaronnaCold)->Arg(20)->Arg(61)->Unit(benchmark::kMillisecond);

// Fixed-iteration n = 20 variant for the CI smoke run (completion only; the
// timed entries above are the numbers).
BENCHMARK(BM_MatrixStepMaronnaCold)->Arg(20)->Iterations(5)->Unit(benchmark::kMillisecond);

// --- universe-scale scaling curve -------------------------------------------
//
// Full-matrix step cost from the paper's n = 61 to the exchange-wide
// n = 2000, under the scalar and AVX2 kernel levels, plus AVX-512 for
// Maronna (the BENCH_corr.json scaling chart). Returns come from the
// deterministic interval-resolution ReturnStream over make_universe(n) — the
// same data any scaled experiment consumes — and the loop is the engines' steady state: one push plus one
// matrix_into per iteration, allocation-free buffers reused throughout.
void matrix_step_scaling(benchmark::State& state, Ctype type,
                         mm::stats::simd::Level level) {
  namespace simd = mm::stats::simd;
  const simd::ScopedLevel scoped(level);
  if (!scoped.engaged()) {
    state.SkipWithError("kernel level unavailable on this build/host");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto universe = mm::md::make_universe(n);
  mm::md::ReturnStream stream(universe, mm::md::GeneratorConfig{});

  CorrEngineConfig cfg;
  cfg.type = type;
  cfg.window = 100;
  CorrelationCalculator calc(cfg, n);
  std::vector<double> returns;
  for (std::size_t t = 0; t <= cfg.window; ++t) {
    stream.next(returns);
    calc.push(returns);
  }
  SymMatrix out;
  calc.matrix_into(out);  // size the buffers off the clock

  for (auto _ : state) {
    stream.next(returns);
    calc.push(returns);
    calc.matrix_into(out);
    benchmark::DoNotOptimize(out.packed().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * (n - 1) / 2));
}

void BM_MatrixScalingPearsonScalar(benchmark::State& state) {
  matrix_step_scaling(state, Ctype::pearson, mm::stats::simd::Level::scalar);
}
BENCHMARK(BM_MatrixScalingPearsonScalar)
    ->Arg(61)->Arg(250)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MatrixScalingPearsonAvx2(benchmark::State& state) {
  matrix_step_scaling(state, Ctype::pearson, mm::stats::simd::Level::avx2);
}
BENCHMARK(BM_MatrixScalingPearsonAvx2)
    ->Arg(61)->Arg(250)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

// Maronna is O(n²·M) per step; the big universes pin the iteration
// count so one bench run stays in seconds, which is ample for a kernel whose
// per-step cost dwarfs timer noise.
void BM_MatrixScalingMaronnaScalar(benchmark::State& state) {
  matrix_step_scaling(state, Ctype::maronna, mm::stats::simd::Level::scalar);
}
BENCHMARK(BM_MatrixScalingMaronnaScalar)
    ->Arg(61)->Arg(250)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatrixScalingMaronnaScalar)
    ->Arg(1000)->Arg(2000)->Iterations(2)->Unit(benchmark::kMillisecond);

void BM_MatrixScalingMaronnaAvx2(benchmark::State& state) {
  matrix_step_scaling(state, Ctype::maronna, mm::stats::simd::Level::avx2);
}
BENCHMARK(BM_MatrixScalingMaronnaAvx2)
    ->Arg(61)->Arg(250)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatrixScalingMaronnaAvx2)
    ->Arg(1000)->Arg(2000)->Iterations(2)->Unit(benchmark::kMillisecond);

// The AVX-512 level: two pairs' reweighting passes per 512-bit pass.
void BM_MatrixScalingMaronnaAvx512(benchmark::State& state) {
  matrix_step_scaling(state, Ctype::maronna, mm::stats::simd::Level::avx512);
}
BENCHMARK(BM_MatrixScalingMaronnaAvx512)
    ->Arg(61)->Arg(250)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatrixScalingMaronnaAvx512)
    ->Arg(1000)->Arg(2000)->Iterations(2)->Unit(benchmark::kMillisecond);
// Fixed-iteration n = 61 variant for the CI smoke run (completion only).
BENCHMARK(BM_MatrixScalingMaronnaAvx512)
    ->Arg(61)->Iterations(5)->Unit(benchmark::kMillisecond);

void BM_PsdRepair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 30;
  CorrelationCalculator calc(cfg, n);
  for (const auto& r : factor_stream(n, 40, 7)) calc.push(r);
  const auto m = calc.matrix();
  for (auto _ : state) benchmark::DoNotOptimize(nearest_psd_correlation(m));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsdRepair)->Arg(10)->Arg(20)->Arg(61)->Unit(benchmark::kMillisecond);

}  // namespace
