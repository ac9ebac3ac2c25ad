// The §V experiment: brute-force backtest of all pairs under the full
// parameter grid, with correlation type as the treatment.
//
// For every trading day the synthetic market is generated, cleaned, sampled
// to ∆s BAM series, and the market-wide correlation series are computed once
// per distinct M (Approach 3's sharing). Every (pair, level, Ctype) strategy
// then replays the day. Results aggregate exactly as the paper does:
// per (pair, Ctype), average over the 14 factor levels of
//   * total cumulative monthly return (+1, as reported in Table III),
//   * maximum daily drawdown (Eq. 7, Table IV),
//   * win–loss ratio (Eq. 8, Table V),
// giving one sample per pair per treatment (1830 samples at full scale).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backtester.hpp"
#include "core/params.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"

namespace mm::core {

struct ExperimentConfig {
  // Universe size (2..61) and trading-day count. The paper's full scale is 61
  // symbols (1830 pairs) over the 20 business days of March 2008; the default
  // here is laptop-sized and `--full` benches override it.
  std::size_t symbols = 20;
  int days = 5;
  // Offset into the deterministic day stream (day d of this experiment uses
  // generator stream first_day_index + d) — lets walk-forward studies slice
  // the same month a single run would produce.
  int first_day_index = 0;

  md::GeneratorConfig generator{};
  md::CleanerConfig cleaner{};
  stats::MaronnaConfig maronna{};
  ParamGrid grid{};

  // Threads run_experiment splits each day's pair work over.
  int ranks = 4;

  // Retain the per-(Ctype, level, pair) measures in the result (used by the
  // parameter-set optimizer; costs |K| x pairs x 3 doubles x 3 measures).
  bool keep_level_detail = false;
};

// Per-(pair, treatment) level-averaged measures — the samples behind Tables
// III-V and Figure 2.
struct ExperimentResult {
  std::size_t symbols = 0;
  std::size_t pair_count = 0;
  int days = 0;
  std::vector<std::string> pair_names;

  // [ctype][pair] — r̄_p + 1 (Table III reports the +1 scale).
  std::array<std::vector<double>, 3> monthly_return_plus1;
  // [ctype][pair] — average (over levels) max daily drawdown, as a fraction.
  std::array<std::vector<double>, 3> max_daily_drawdown;
  // [ctype][pair] — average (over levels) win-loss ratio.
  std::array<std::vector<double>, 3> win_loss;

  // Per-level detail (empty unless ExperimentConfig::keep_level_detail):
  // [ctype][level][pair].
  std::array<std::vector<std::vector<double>>, 3> level_monthly_return_plus1;
  std::array<std::vector<std::vector<double>>, 3> level_max_daily_drawdown;
  std::array<std::vector<std::vector<double>>, 3> level_win_loss;

  std::uint64_t total_trades = 0;
  std::size_t quotes_processed = 0;
  std::size_t quotes_dropped = 0;
  double wall_seconds = 0.0;
};

// Runs the experiment on `config.ranks` threads. Each day is generated,
// cleaned and sampled once on the calling thread; the canonical pairs are
// then cut into contiguous stats::block_begin blocks, one per thread, and
// each thread computes the correlation series and runs the strategies of its
// block. Every pair's arithmetic is the same at any rank count, so the result
// is bit-identical for every `config.ranks`. A thread's exception is rethrown
// on the calling thread.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace mm::core
