// Microbenchmarks for the backtesting path: strategy stepping (one pair, and
// a whole day's pairs in one PairBank), per-pair correlation-series
// recomputation (Approach 2's unit cost) and the shared market-wide
// computation (Approach 3's unit cost).
#include <benchmark/benchmark.h>

#include "core/backtester.hpp"
#include "core/experiment.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"

namespace {

using namespace mm;

struct DayFixture {
  std::vector<std::vector<double>> bam;

  explicit DayFixture(std::size_t symbols) {
    const auto universe = md::make_universe(symbols);
    md::GeneratorConfig gen;
    gen.quote_rate = 0.2;
    const md::SyntheticDay day(universe, gen, 0);
    md::QuoteCleaner cleaner(symbols, md::CleanerConfig{});
    bam = md::sample_bam_series(cleaner.clean(day.quotes()), symbols, gen.session, 30);
  }
};

void BM_StrategyDayRun(benchmark::State& state) {
  static const DayFixture fixture(4);
  core::StrategyParams params = core::ParamGrid::base();
  params.divergence = 0.0005;
  const auto series = core::compute_pair_corr_series(
      fixture.bam[0], fixture.bam[1], stats::Ctype::pearson, params.corr_window);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_pair_day(params, fixture.bam[0], fixture.bam[1], series));
  }
  // 780 intervals per run.
  state.SetItemsProcessed(state.iterations() * 780);
}
BENCHMARK(BM_StrategyDayRun);

// One 61-symbol Pearson day (1,830 pairs, 780 frames) with one paramset:
// frame_major:1 steps every pair of a frame in one PairBank, as the pipeline's
// strategy stage does; frame_major:0 runs each pair alone (run_pair_day).
void BM_StrategyBankDay(benchmark::State& state) {
  static const DayFixture fixture(61);
  static const core::MarketCorrSeries market =
      core::compute_market_corr_series(fixture.bam, 100, /*need_maronna=*/false);
  const core::StrategyParams params = core::ParamGrid::base();
  const auto& bam = fixture.bam;
  const std::size_t n = bam.size();
  const auto smax = static_cast<std::int64_t>(bam[0].size());
  const auto pairs = stats::all_pairs(n);
  const bool frame_major = state.range(0) != 0;

  std::size_t trades = 0;
  std::vector<double> prices(n), corr(pairs.size());
  for (auto _ : state) {
    trades = 0;
    if (frame_major) {
      core::PairBank bank(params, smax, n, pairs);
      for (std::int64_t s = 0; s < smax; ++s) {
        const auto si = static_cast<std::size_t>(s);
        for (std::size_t i = 0; i < n; ++i) prices[i] = bam[i][si];
        const bool valid = s >= market.first_valid;
        if (valid)
          for (std::size_t k = 0; k < pairs.size(); ++k) corr[k] = market.pearson[k][si];
        bank.step(s, prices.data(), corr.data(), valid);
      }
      bank.finish();
      for (std::size_t k = 0; k < pairs.size(); ++k) trades += bank.trades(k).size();
    } else {
      for (std::size_t k = 0; k < pairs.size(); ++k)
        trades += core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k)
                      .size();
    }
    benchmark::DoNotOptimize(trades);
  }
  state.counters["trades"] = static_cast<double>(trades);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()) * smax);
}
BENCHMARK(BM_StrategyBankDay)->ArgName("frame_major")->Arg(1)->Arg(0)
    ->Iterations(20)->Unit(benchmark::kMillisecond);

void BM_PairSeriesPearson(benchmark::State& state) {
  static const DayFixture fixture(4);
  const auto m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pair_corr_series(
        fixture.bam[0], fixture.bam[1], stats::Ctype::pearson, m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairSeriesPearson)->Arg(50)->Arg(100)->Arg(200);

void BM_PairSeriesMaronna(benchmark::State& state) {
  static const DayFixture fixture(4);
  const auto m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pair_corr_series(
        fixture.bam[0], fixture.bam[1], stats::Ctype::maronna, m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairSeriesMaronna)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_MarketSeriesShared(benchmark::State& state) {
  // Approach 3's amortized unit: ALL pairs in one pass (Pearson only, the
  // common case for the fast path).
  const auto symbols = static_cast<std::size_t>(state.range(0));
  const DayFixture fixture(symbols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compute_market_corr_series(fixture.bam, 100, /*need_maronna=*/false));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols * (symbols - 1) / 2));
}
BENCHMARK(BM_MarketSeriesShared)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_TinyExperimentEndToEnd(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.symbols = 4;
  cfg.days = 1;
  cfg.generator.quote_rate = 0.1;
  cfg.ranks = 1;  // the serial work, on the calling thread
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyExperimentEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
