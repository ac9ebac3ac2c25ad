// Backtesting engines: per-pair day runs and correlation-series production.
//
// Two compute paths, mirroring the paper's §IV:
//
//   * "Approach 2" (ScalarBacktester path): compute_pair_corr_series —
//     recomputes one pair's correlation time series from scratch with batch
//     estimators. Cost O(smax · M) per pair for Pearson and O(smax · M ·
//     iterations) for Maronna, paid again for every pair and every parameter
//     set. This is the deliberately naive Matlab-equivalent baseline.
//
//   * "Approach 3" (integrated path): compute_market_corr_series — one pass
//     of the incremental market-wide calculator produces Pearson AND Maronna
//     series for ALL pairs simultaneously; every strategy parameter set that
//     shares (∆s, M) reuses them. This is the amortization that makes the
//     brute-force parameter sweep feasible.
//
// run_pair_day() then drives a PairBank of one pair over the series.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/strategy.hpp"
#include "stats/correlation.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::core {

// One pair's correlation coefficients across a day: values[s] is C(s),
// valid for s >= first_valid (the window needs M returns; returns start at
// interval 1, so first_valid == M).
struct CorrSeries {
  std::int64_t first_valid = 0;
  std::vector<double> values;

  bool valid_at(std::int64_t s) const {
    return s >= first_valid && s < static_cast<std::int64_t>(values.size());
  }
};

// Per-pair recomputation with batch estimators (Approach 2).
CorrSeries compute_pair_corr_series(const std::vector<double>& prices_i,
                                    const std::vector<double>& prices_j,
                                    stats::Ctype ctype, std::int64_t corr_window,
                                    const stats::MaronnaConfig& maronna_config = {});

// Market-wide series for every pair in canonical (i < j) order, produced in
// one incremental pass (Approach 3). Pearson always; Maronna only when
// `need_maronna` (it dominates the cost).
struct MarketCorrSeries {
  std::int64_t first_valid = 0;
  std::int64_t smax = 0;
  std::size_t symbols = 0;
  bool has_maronna = false;
  // [pair][s]; entries below first_valid are 0.
  std::vector<std::vector<double>> pearson;
  std::vector<std::vector<double>> maronna;

  // C(s) for pair index k under the requested measure (Combined derives from
  // the other two).
  double at(stats::Ctype ctype, std::size_t pair_index, std::int64_t s) const;
};

MarketCorrSeries compute_market_corr_series(
    const std::vector<std::vector<double>>& bam, std::int64_t corr_window,
    bool need_maronna, const stats::MaronnaConfig& maronna_config = {});

// Shard variant: series only for `pairs` (any subset, output in that order).
// The incremental window state is market-wide either way; only the per-pair
// estimation loop is restricted — this is the unit the parallel ranks own.
MarketCorrSeries compute_market_corr_series(
    const std::vector<std::vector<double>>& bam, std::int64_t corr_window,
    bool need_maronna, const stats::MaronnaConfig& maronna_config,
    const std::vector<stats::PairIndex>& pairs);

// Drive one pair's strategy across one day. `corr(s)` is looked up in the
// series; intervals before first_valid step the machine with corr_valid =
// false so its price windows still warm up.
std::vector<Trade> run_pair_day(const StrategyParams& params,
                                const std::vector<double>& prices_i,
                                const std::vector<double>& prices_j,
                                const CorrSeries& corr);

// Same, but reading from a MarketCorrSeries (no per-pair copy).
std::vector<Trade> run_pair_day(const StrategyParams& params,
                                const std::vector<double>& prices_i,
                                const std::vector<double>& prices_j,
                                const MarketCorrSeries& market,
                                std::size_t pair_index);

}  // namespace mm::core
