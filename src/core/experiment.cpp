#include "core/experiment.hpp"

#include <exception>
#include <thread>

#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "marketdata/bars.hpp"

namespace mm::core {
namespace {

constexpr std::size_t n_ctypes = 3;

// Running state for one (ctype, level, pair): the paper accumulates a daily
// cumulative return per day plus win/loss counts across the month.
struct CellAccum {
  std::vector<double> daily_returns;
  WinLoss wl;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  MM_ASSERT_MSG(config.ranks >= 1, "need at least one rank");
  Stopwatch watch;
  const md::Universe universe = md::make_universe(config.symbols);
  const auto pairs = stats::all_pairs(config.symbols);
  const auto levels = config.grid.levels();
  const auto windows = config.grid.distinct_corr_windows();

  // All grid levels share ∆s (Table I evaluates one ∆s = 30 s); assert so a
  // future grid change cannot silently sample at the wrong granularity.
  const std::int64_t delta_s = levels.front().delta_s;
  for (const auto& level : levels) MM_ASSERT(level.delta_s == delta_s);

  ExperimentResult result;
  result.symbols = config.symbols;
  result.pair_count = pairs.size();
  result.days = config.days;
  result.pair_names.reserve(pairs.size());
  for (const auto& pr : pairs)
    result.pair_names.push_back(universe.table.name(pr.i) + "/" +
                                universe.table.name(pr.j));

  // accum[(ctype * L + level) * P + pair], pair in canonical order. Thread r
  // owns the contiguous pair block [block_begin(P, ranks, r),
  // block_begin(P, ranks, r + 1)) and writes only its block's slots, so the
  // result does not depend on which thread finishes first.
  const std::size_t n_levels = levels.size();
  const std::size_t n_pairs = pairs.size();
  std::vector<CellAccum> accum(n_ctypes * n_levels * n_pairs);
  const auto cell = [&](std::size_t c, std::size_t l, std::size_t k) -> CellAccum& {
    return accum[(c * n_levels + l) * n_pairs + k];
  };
  const auto ranks = static_cast<std::size_t>(config.ranks);
  std::vector<std::uint64_t> trades(ranks, 0);
  std::vector<std::exception_ptr> errors(ranks);

  for (int day_index = 0; day_index < config.days; ++day_index) {
    // The day is generated, cleaned and sampled once; only the pair work is
    // split over the threads.
    const md::SyntheticDay day(universe, config.generator,
                               config.first_day_index + day_index);
    md::QuoteCleaner cleaner(config.symbols, config.cleaner);
    const auto cleaned = cleaner.clean(day.quotes());
    result.quotes_processed += day.quotes().size();
    result.quotes_dropped += day.quotes().size() - cleaned.size();
    const auto bam = md::sample_bam_series(cleaned, config.symbols,
                                           config.generator.session, delta_s);

    const auto run_block = [&](std::size_t r) {
      try {
        std::uint64_t block_trades = 0;
        const std::size_t begin = stats::block_begin(n_pairs, ranks, r);
        const std::vector<stats::PairIndex> block(
            pairs.begin() + static_cast<std::ptrdiff_t>(begin),
            pairs.begin() + static_cast<std::ptrdiff_t>(
                                stats::block_begin(n_pairs, ranks, r + 1)));
        for (const std::int64_t m : windows) {
          const auto series = compute_market_corr_series(bam, m, /*need_maronna=*/true,
                                                         config.maronna, block);
          for (std::size_t l = 0; l < n_levels; ++l) {
            if (levels[l].corr_window != m) continue;
            for (std::size_t c = 0; c < n_ctypes; ++c) {
              StrategyParams params = levels[l];
              params.ctype = stats::all_ctypes[c];
              for (std::size_t p = 0; p < block.size(); ++p) {
                const auto day_trades =
                    run_pair_day(params, bam[block[p].i], bam[block[p].j], series, p);
                std::vector<double> trade_returns;
                trade_returns.reserve(day_trades.size());
                for (const auto& t : day_trades) trade_returns.push_back(t.trade_return);
                block_trades += day_trades.size();

                CellAccum& a = cell(c, l, begin + p);
                a.daily_returns.push_back(cumulative_return(trade_returns));
                a.wl.merge(win_loss(trade_returns));
              }
            }
          }
        }
        trades[r] += block_trades;
      } catch (...) {
        errors[r] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> threads;  // joined when the scope ends
      threads.reserve(ranks - 1);
      for (std::size_t r = 1; r < ranks; ++r) threads.emplace_back(run_block, r);
      run_block(0);
    }
    for (const auto& error : errors)
      if (error) std::rethrow_exception(error);
  }
  for (const std::uint64_t t : trades) result.total_trades += t;

  // Finalize: per (ctype, level, pair) measures, then the paper's
  // average-over-levels aggregation.
  for (std::size_t c = 0; c < n_ctypes; ++c) {
    result.monthly_return_plus1[c].assign(n_pairs, 0.0);
    result.max_daily_drawdown[c].assign(n_pairs, 0.0);
    result.win_loss[c].assign(n_pairs, 0.0);
    if (config.keep_level_detail) {
      result.level_monthly_return_plus1[c].assign(n_levels,
                                                  std::vector<double>(n_pairs, 0.0));
      result.level_max_daily_drawdown[c].assign(n_levels,
                                                std::vector<double>(n_pairs, 0.0));
      result.level_win_loss[c].assign(n_levels, std::vector<double>(n_pairs, 0.0));
    }
    for (std::size_t k = 0; k < n_pairs; ++k) {
      double sum_ret = 0.0, sum_mdd = 0.0, sum_wl = 0.0;
      for (std::size_t l = 0; l < n_levels; ++l) {
        const CellAccum& a = cell(c, l, k);
        const double ret = cumulative_return(a.daily_returns) + 1.0;
        const double mdd = max_drawdown(a.daily_returns);
        const double wl = a.wl.ratio();
        if (config.keep_level_detail) {
          result.level_monthly_return_plus1[c][l][k] = ret;
          result.level_max_daily_drawdown[c][l][k] = mdd;
          result.level_win_loss[c][l][k] = wl;
        }
        sum_ret += ret;
        sum_mdd += mdd;
        sum_wl += wl;
      }
      const auto nl = static_cast<double>(n_levels);
      result.monthly_return_plus1[c][k] = sum_ret / nl;
      result.max_daily_drawdown[c][k] = sum_mdd / nl;
      result.win_loss[c][k] = sum_wl / nl;
    }
  }
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace mm::core
