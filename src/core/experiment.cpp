#include "core/experiment.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <thread>

#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "marketdata/bars.hpp"

namespace mm::core {
namespace {

constexpr std::size_t n_ctypes = 3;

// Running state for one (ctype, level, shard-pair): the paper accumulates a
// daily cumulative return per day plus win/loss counts across the month.
struct CellAccum {
  std::vector<double> daily_returns;
  WinLoss wl;
};

// Per-pair final measures for one treatment.
struct PairMeasures {
  double monthly_return_plus1 = 1.0;
  double max_daily_drawdown = 0.0;
  double win_loss = 0.0;
};

struct ShardOutput {
  std::vector<stats::PairIndex> pairs;  // shard, canonical order
  std::size_t n_levels = 0;
  // [ctype][local pair] — averaged over levels (the paper's aggregation).
  std::array<std::vector<PairMeasures>, n_ctypes> measures;
  // [(ctype * n_levels) + level][local pair] — kept when level detail is on.
  std::vector<std::vector<PairMeasures>> by_level;
  std::uint64_t total_trades = 0;
  std::size_t quotes_processed = 0;
  std::size_t quotes_dropped = 0;
};

// Run the whole experiment for one shard of pairs. Deterministic in
// (config, shard) — every rank regenerates identical market data.
ShardOutput run_shard(const ExperimentConfig& config,
                      const std::vector<stats::PairIndex>& shard) {
  const md::Universe universe = md::make_universe(config.symbols);
  const auto days = md::business_days(config.first_day, config.days);
  const auto levels = config.grid.levels();
  const auto windows = config.grid.distinct_corr_windows();

  // All grid levels share ∆s (Table I evaluates one ∆s = 30 s); assert so a
  // future grid change cannot silently sample at the wrong granularity.
  const std::int64_t delta_s = levels.front().delta_s;
  for (const auto& level : levels) MM_ASSERT(level.delta_s == delta_s);

  ShardOutput out;
  out.pairs = shard;

  // accum[(ctype * L + level) * shard + local_pair]
  const std::size_t n_levels = levels.size();
  std::vector<CellAccum> accum(n_ctypes * n_levels * shard.size());
  const auto cell = [&](std::size_t c, std::size_t l, std::size_t p) -> CellAccum& {
    return accum[(c * n_levels + l) * shard.size() + p];
  };

  for (int day_index = 0; day_index < config.days; ++day_index) {
    md::GeneratorConfig gen = config.generator;
    const md::SyntheticDay day(universe, gen, config.first_day_index + day_index);

    md::QuoteCleaner cleaner(config.symbols, config.cleaner);
    const auto cleaned = cleaner.clean(day.quotes());
    out.quotes_processed += day.quotes().size();
    out.quotes_dropped += day.quotes().size() - cleaned.size();

    const auto bam =
        md::sample_bam_series(cleaned, config.symbols, gen.session, delta_s);

    for (const std::int64_t m : windows) {
      const auto series =
          compute_market_corr_series(bam, m, /*need_maronna=*/true, config.maronna, shard);
      for (std::size_t l = 0; l < n_levels; ++l) {
        if (levels[l].corr_window != m) continue;
        for (std::size_t c = 0; c < n_ctypes; ++c) {
          StrategyParams params = levels[l];
          params.ctype = stats::all_ctypes[c];
          for (std::size_t p = 0; p < shard.size(); ++p) {
            const auto trades =
                run_pair_day(params, bam[shard[p].i], bam[shard[p].j], series, p);
            std::vector<double> trade_returns;
            trade_returns.reserve(trades.size());
            for (const auto& t : trades) trade_returns.push_back(t.trade_return);
            out.total_trades += trades.size();

            CellAccum& a = cell(c, l, p);
            a.daily_returns.push_back(cumulative_return(trade_returns));
            a.wl.merge(win_loss(trade_returns));
          }
        }
      }
    }
  }

  // Finalize: per (ctype, level, pair) measures, then the paper's
  // average-over-levels aggregation.
  out.n_levels = n_levels;
  out.by_level.assign(n_ctypes * n_levels, {});
  for (std::size_t c = 0; c < n_ctypes; ++c) {
    out.measures[c].resize(shard.size());
    for (std::size_t l = 0; l < n_levels; ++l)
      out.by_level[c * n_levels + l].resize(shard.size());
    for (std::size_t p = 0; p < shard.size(); ++p) {
      double sum_ret = 0.0, sum_mdd = 0.0, sum_wl = 0.0;
      for (std::size_t l = 0; l < n_levels; ++l) {
        const CellAccum& a = cell(c, l, p);
        PairMeasures m;
        m.monthly_return_plus1 = cumulative_return(a.daily_returns) + 1.0;
        m.max_daily_drawdown = max_drawdown(a.daily_returns);
        m.win_loss = a.wl.ratio();
        out.by_level[c * n_levels + l][p] = m;
        sum_ret += m.monthly_return_plus1;
        sum_mdd += m.max_daily_drawdown;
        sum_wl += m.win_loss;
      }
      const auto nl = static_cast<double>(n_levels);
      out.measures[c][p] = {sum_ret / nl, sum_mdd / nl, sum_wl / nl};
    }
  }
  if (!config.keep_level_detail) out.by_level.clear();
  return out;
}

ExperimentResult assemble(const ExperimentConfig& config,
                          const std::vector<ShardOutput>& shards) {
  const md::Universe universe = md::make_universe(config.symbols);
  const auto pairs = stats::all_pairs(config.symbols);

  ExperimentResult result;
  result.symbols = config.symbols;
  result.pair_count = pairs.size();
  result.days = config.days;
  result.pair_names.reserve(pairs.size());
  for (const auto& pr : pairs)
    result.pair_names.push_back(universe.table.name(pr.i) + "/" +
                                universe.table.name(pr.j));

  // Map canonical pair -> global slot.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> slot;
  for (std::size_t k = 0; k < pairs.size(); ++k) slot[{pairs[k].i, pairs[k].j}] = k;

  for (std::size_t c = 0; c < n_ctypes; ++c) {
    result.monthly_return_plus1[c].assign(pairs.size(), 0.0);
    result.max_daily_drawdown[c].assign(pairs.size(), 0.0);
    result.win_loss[c].assign(pairs.size(), 0.0);
  }

  const std::size_t n_levels = config.grid.levels().size();
  if (config.keep_level_detail) {
    for (std::size_t c = 0; c < n_ctypes; ++c) {
      result.level_monthly_return_plus1[c].assign(n_levels,
                                                  std::vector<double>(pairs.size(), 0.0));
      result.level_max_daily_drawdown[c].assign(n_levels,
                                                std::vector<double>(pairs.size(), 0.0));
      result.level_win_loss[c].assign(n_levels,
                                      std::vector<double>(pairs.size(), 0.0));
    }
  }

  for (const auto& shard : shards) {
    result.total_trades += shard.total_trades;
    result.quotes_processed += shard.quotes_processed;
    result.quotes_dropped += shard.quotes_dropped;
    for (std::size_t p = 0; p < shard.pairs.size(); ++p) {
      const std::size_t k = slot.at({shard.pairs[p].i, shard.pairs[p].j});
      for (std::size_t c = 0; c < n_ctypes; ++c) {
        result.monthly_return_plus1[c][k] = shard.measures[c][p].monthly_return_plus1;
        result.max_daily_drawdown[c][k] = shard.measures[c][p].max_daily_drawdown;
        result.win_loss[c][k] = shard.measures[c][p].win_loss;
        if (config.keep_level_detail && !shard.by_level.empty()) {
          for (std::size_t l = 0; l < n_levels; ++l) {
            const PairMeasures& m = shard.by_level[c * n_levels + l][p];
            result.level_monthly_return_plus1[c][l][k] = m.monthly_return_plus1;
            result.level_max_daily_drawdown[c][l][k] = m.max_daily_drawdown;
            result.level_win_loss[c][l][k] = m.win_loss;
          }
        }
      }
    }
  }
  // quotes counters are per-shard duplicates of the same generated day; keep
  // one copy's worth.
  if (shards.size() > 1) {
    result.quotes_processed = shards.front().quotes_processed;
    result.quotes_dropped = shards.front().quotes_dropped;
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Stopwatch watch;
  const auto shard = run_shard(config, stats::all_pairs(config.symbols));
  auto result = assemble(config, {shard});
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

ExperimentResult run_experiment_parallel(const ExperimentConfig& config) {
  MM_ASSERT_MSG(config.ranks >= 1, "need at least one rank");
  Stopwatch watch;

  // Static shard: pair k -> rank k % ranks. Each rank writes only its own
  // slot, and assemble places every pair by its canonical index, so the
  // result does not depend on which rank finishes first.
  const auto ranks = static_cast<std::size_t>(config.ranks);
  const auto pairs = stats::all_pairs(config.symbols);
  std::vector<ShardOutput> shards(ranks);
  std::vector<std::exception_ptr> errors(ranks);
  {
    std::vector<std::jthread> threads;  // joined when the scope ends, on any path
    threads.reserve(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        try {
          std::vector<stats::PairIndex> mine;
          for (std::size_t k = r; k < pairs.size(); k += ranks) mine.push_back(pairs[k]);
          shards[r] = run_shard(config, mine);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  auto result = assemble(config, shards);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace mm::core
