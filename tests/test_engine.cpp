// Integration tests for the Fig. 1 pipeline: stream a synthetic day through
// collector -> cleaner -> snapshot -> correlation -> strategies -> master and
// check the master's books against the direct (non-streaming) backtest path.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "core/backtester.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/tickdb.hpp"

namespace mm::engine {
namespace {

struct Scenario {
  md::Universe universe;
  std::vector<md::Quote> quotes;
};

Scenario make_scenario(std::size_t symbols, int day) {
  Scenario s{md::make_universe(symbols), {}};
  md::GeneratorConfig cfg;
  cfg.quote_rate = 0.15;
  const md::SyntheticDay synth(s.universe, cfg, day);
  s.quotes = synth.quotes();
  return s;
}

core::StrategyParams pipeline_params(stats::Ctype ctype) {
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = ctype;
  p.divergence = 0.0005;
  return p;
}

TEST(Pipeline, RunsEndToEndAndBalancesBooks) {
  auto scenario = make_scenario(6, 0);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson),
                    pipeline_params(stats::Ctype::maronna),
                    pipeline_params(stats::Ctype::combined)};

  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);

  // Orders: one entry and one exit per trade.
  EXPECT_EQ(result.master.entries, result.master.trades);
  EXPECT_EQ(result.master.exits, result.master.trades);
  EXPECT_EQ(result.master.orders, result.master.entries + result.master.exits);
  EXPECT_GT(result.master.trades, 0u);
  EXPECT_EQ(result.master.trade_returns.size(), result.master.trades);

  // Every position was flattened: net shares per symbol are zero.
  for (const auto& [symbol, net] : result.master.net_shares)
    EXPECT_NEAR(net, 0.0, 1e-9) << "symbol " << symbol;

  EXPECT_GT(result.quotes_per_second, 0.0);
  EXPECT_EQ(result.quotes_in, scenario.quotes.size());
}

TEST(Pipeline, StageThroughputAccounting) {
  auto scenario = make_scenario(4, 1);
  PipelineConfig cfg;
  cfg.symbols = 4;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson)};
  // The same day twice through one caller-supplied registry: stage reports
  // are read from each run's metrics delta, never from absolute values.
  obs::Registry registry;
  cfg.metrics = &registry;
  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);
  const auto again = run_pipeline(cfg, scenario.universe, scenario.quotes);

  const std::vector<std::string> names = {"collector", "cleaner",    "snapshot",
                                          "correlation", "strategy-0", "master"};
  ASSERT_EQ(result.stages.size(), names.size());
  ASSERT_EQ(again.stages.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const StageReport& first = result.stages[i];
    const StageReport& second = again.stages[i];
    EXPECT_EQ(first.name, names[i]);
    EXPECT_EQ(second.name, first.name);
    EXPECT_EQ(second.records_in, first.records_in) << first.name;
    EXPECT_EQ(second.records_out, first.records_out) << first.name;
    EXPECT_EQ(second.items_in, first.items_in) << first.name;
    EXPECT_EQ(second.items_out, first.items_out) << first.name;
    EXPECT_EQ(second.faults, first.faults) << first.name;

    // Records are dagflow's frame counters for the node.
    const auto frames = [&](const char* series) {
      const obs::MetricValue* m = result.metrics.find("dag." + first.name + series);
      return m != nullptr ? static_cast<std::uint64_t>(m->value) : ~std::uint64_t{0};
    };
    EXPECT_EQ(first.records_in, frames(".frames_in")) << first.name;
    EXPECT_EQ(first.records_out, frames(".frames_out")) << first.name;
  }

  const auto& collector = result.stages[0];
  const auto& cleaner = result.stages[1];
  const auto& snapshot = result.stages[2];
  const auto& correlation = result.stages[3];

  EXPECT_EQ(collector.items_out, scenario.quotes.size());
  EXPECT_EQ(cleaner.items_in, scenario.quotes.size());
  EXPECT_LE(cleaner.items_out, cleaner.items_in);  // cleaning drops some
  EXPECT_GT(cleaner.items_out, cleaner.items_in * 9 / 10);
  // One snapshot per interval (delta_s = 30 -> 780), one frame out per
  // snapshot in.
  EXPECT_EQ(snapshot.items_out, 780u);
  EXPECT_EQ(correlation.items_in, 780u);
  EXPECT_EQ(correlation.items_out, 780u);
}

TEST(Pipeline, MatchesDirectBacktestExactly) {
  // The streaming pipeline and the direct (Approach 3) path see the same
  // cleaned data and must produce identical trade counts and total pnl.
  auto scenario = make_scenario(5, 2);
  const auto params = pipeline_params(stats::Ctype::pearson);

  PipelineConfig cfg;
  cfg.symbols = 5;
  cfg.strategies = {params};
  const auto streamed = run_pipeline(cfg, scenario.universe, scenario.quotes);

  // Direct path: same cleaning, same sampling (with base-price seeding as the
  // snapshot stage does), same strategy.
  md::QuoteCleaner cleaner(5, cfg.cleaner);
  const auto cleaned = cleaner.clean(scenario.quotes);
  const md::Session session;
  auto bam = md::sample_bam_series(cleaned, 5, session, params.delta_s);
  // sample_bam_series backfills from the first quote; the pipeline seeds from
  // base_price. Replicate the pipeline's seeding for a like-for-like check.
  {
    std::vector<bool> seen(5, false);
    std::size_t qi = 0;
    const auto smax = static_cast<std::size_t>(session.interval_count(params.delta_s));
    for (std::size_t s = 0; s < smax; ++s) {
      const auto end = session.interval_end(static_cast<std::int64_t>(s), params.delta_s);
      for (; qi < cleaned.size() && cleaned[qi].ts_ms < end; ++qi)
        seen[cleaned[qi].symbol] = true;
      for (std::size_t i = 0; i < 5; ++i)
        if (!seen[i]) bam[i][s] = scenario.universe.base_price[i];
    }
  }

  const auto market = core::compute_market_corr_series(bam, params.corr_window, false);
  const auto pairs = stats::all_pairs(5);
  std::uint64_t direct_trades = 0;
  double direct_pnl = 0.0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto trades =
        core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k);
    direct_trades += trades.size();
    for (const auto& t : trades) direct_pnl += t.pnl;
  }

  EXPECT_EQ(streamed.master.trades, direct_trades);
  EXPECT_NEAR(streamed.master.total_pnl, direct_pnl, 1e-9);
}

TEST(Pipeline, DbCollectorPathEquivalent) {
  auto scenario = make_scenario(4, 3);
  const auto root = (std::filesystem::temp_directory_path() /
                     ("mm_engine_db_" + std::to_string(::getpid())))
                        .string();
  {
    auto db = md::TickDb::open(root);
    ASSERT_TRUE(db.has_value());
    ASSERT_TRUE(db->put_symbols(scenario.universe.table).has_value());
    ASSERT_TRUE(db->write_day(md::Date{2008, 3, 3}, scenario.quotes).has_value());
  }

  PipelineConfig mem_cfg;
  mem_cfg.symbols = 4;
  mem_cfg.strategies = {pipeline_params(stats::Ctype::pearson)};
  const auto from_memory = run_pipeline(mem_cfg, scenario.universe, scenario.quotes);

  PipelineConfig db_cfg = mem_cfg;
  db_cfg.tickdb_root = root;
  db_cfg.date = md::Date{2008, 3, 3};
  const auto from_db = run_pipeline(db_cfg, scenario.universe, {});

  EXPECT_EQ(from_db.master.trades, from_memory.master.trades);
  EXPECT_NEAR(from_db.master.total_pnl, from_memory.master.total_pnl, 1e-9);
  std::filesystem::remove_all(root);
}

class PipelineCorrReplicas : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Replicas, PipelineCorrReplicas,
                         ::testing::Values(1, 2, 3, 4, 5));

// Per-strategy results compared bit for bit.
void expect_identical_summaries(const PipelineResult& got_run,
                                const PipelineResult& want_run) {
  EXPECT_EQ(got_run.master.trades, want_run.master.trades);
  EXPECT_EQ(got_run.master.orders, want_run.master.orders);
  const auto& got = got_run.master.strategy_summaries;
  const auto& want = want_run.master.strategy_summaries;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].strategy_id, want[w].strategy_id);
    EXPECT_EQ(got[w].trades, want[w].trades) << "strategy " << w;
    EXPECT_EQ(got[w].total_pnl, want[w].total_pnl) << "strategy " << w;
    EXPECT_EQ(got[w].trade_returns, want[w].trade_returns) << "strategy " << w;
  }
}

// Ranks the correlation group ran with: every member records one sample of
// the node's wall-time histogram.
std::uint64_t correlation_ranks(const PipelineResult& result) {
  const obs::MetricValue* wall = result.metrics.find("dag.correlation.wall_ns");
  return wall != nullptr ? wall->count : 0;
}

TEST_P(PipelineCorrReplicas, ParallelCorrelationStageMatchesSerial) {
  // The Fig. 1 "Parallel Correlation Engine" as a rank group must be
  // indistinguishable (bit-identical per-strategy trades and P&L) from the
  // single-rank group.
  auto scenario = make_scenario(6, 6);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson),
                    pipeline_params(stats::Ctype::maronna)};
  cfg.correlation_replicas = 1;
  const auto serial = run_pipeline(cfg, scenario.universe, scenario.quotes);

  cfg.correlation_replicas = GetParam();
  const auto parallel = run_pipeline(cfg, scenario.universe, scenario.quotes);

  expect_identical_summaries(parallel, serial);
  EXPECT_EQ(correlation_ranks(serial), 1u);
  EXPECT_EQ(correlation_ranks(parallel), static_cast<std::uint64_t>(GetParam()));
}

TEST(PipelineCorrGroup, PearsonOnlyDayRunsOneCorrelationRank) {
  // Pearson is O(1) per pair, so a Pearson-only day has nothing to shard:
  // the group runs its leader alone whatever correlation_replicas says, and
  // the day is bit-identical to an explicit one-rank run.
  auto scenario = make_scenario(6, 6);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson)};
  cfg.correlation_replicas = 4;
  const auto grouped = run_pipeline(cfg, scenario.universe, scenario.quotes);

  cfg.correlation_replicas = 1;
  const auto single = run_pipeline(cfg, scenario.universe, scenario.quotes);

  EXPECT_GT(single.master.trades, 0u);
  expect_identical_summaries(grouped, single);
  EXPECT_EQ(correlation_ranks(grouped), 1u);
  EXPECT_EQ(correlation_ranks(single), 1u);
}

TEST(Pipeline, NettingAccountingConsistent) {
  auto scenario = make_scenario(6, 5);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson),
                    pipeline_params(stats::Ctype::maronna)};
  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);
  ASSERT_GT(result.master.orders, 0u);
  // Netting can only reduce (or keep) total shares, never increase.
  EXPECT_LE(result.master.netted_order_shares, result.master.raw_order_shares);
  EXPECT_GT(result.master.raw_order_shares, 0.0);
  const double saving = result.master.netting_savings_fraction();
  EXPECT_GE(saving, 0.0);
  EXPECT_LT(saving, 1.0);
  EXPECT_GT(result.master.peak_gross_notional, 0.0);
  // No limits configured: no breaches recorded.
  EXPECT_EQ(result.master.symbol_limit_breaches, 0u);
  EXPECT_EQ(result.master.gross_limit_breaches, 0u);
}

TEST(Pipeline, RiskLimitsFlagBreaches) {
  auto scenario = make_scenario(6, 5);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson),
                    pipeline_params(stats::Ctype::maronna)};
  // Absurdly tight limits: nearly every order breaches.
  cfg.risk.max_symbol_shares = 0.5;
  cfg.risk.max_gross_notional = 1.0;
  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_GT(result.master.symbol_limit_breaches, 0u);
  EXPECT_GT(result.master.gross_limit_breaches, 0u);
  // Observational limits do not change the trading itself.
  EXPECT_GT(result.master.trades, 0u);
}

TEST(Pipeline, ClusteringBranchEmitsSnapshotsWithoutChangingTrades) {
  auto scenario = make_scenario(6, 7);
  PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson)};
  const auto plain = run_pipeline(cfg, scenario.universe, scenario.quotes);

  cfg.cluster_every = 50;
  cfg.cluster_count = 3;
  const auto with_clusters = run_pipeline(cfg, scenario.universe, scenario.quotes);

  // Clustering is a pure observer: trading identical.
  EXPECT_EQ(with_clusters.master.trades, plain.master.trades);
  EXPECT_NEAR(with_clusters.master.total_pnl, plain.master.total_pnl, 1e-9);

  ASSERT_FALSE(with_clusters.clusters.empty());
  for (const auto& snap : with_clusters.clusters) {
    EXPECT_EQ(snap.cluster_count, 3);
    EXPECT_EQ(snap.assignment.size(), 6u);
    EXPECT_EQ(snap.interval % 50, 0);
  }
  EXPECT_TRUE(plain.clusters.empty());
}

TEST(Pipeline, SessionAggregatesAcrossDays) {
  const auto universe = md::make_universe(4);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  PipelineConfig cfg;
  cfg.symbols = 4;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson)};

  const auto session = run_pipeline_session(cfg, universe, gen, 3);
  ASSERT_EQ(session.days.size(), 3u);
  ASSERT_EQ(session.daily_pnl.size(), 3u);

  std::uint64_t trades = 0;
  double pnl = 0.0;
  for (const auto& day : session.days) {
    trades += day.master.trades;
    pnl += day.master.total_pnl;
  }
  EXPECT_EQ(session.total_trades, trades);
  EXPECT_NEAR(session.total_pnl, pnl, 1e-9);

  // Day 0 must equal a standalone single-day run (state resets daily).
  const md::SyntheticDay day0(universe, gen, 0);
  const auto standalone = run_pipeline(cfg, universe, day0.quotes());
  EXPECT_EQ(session.days[0].master.trades, standalone.master.trades);
  EXPECT_NEAR(session.days[0].master.total_pnl, standalone.master.total_pnl, 1e-9);
}

TEST(Pipeline, SmallChannelCapacityStillCorrect) {
  // Harsh backpressure must not change results, only pacing.
  auto scenario = make_scenario(4, 4);
  PipelineConfig cfg;
  cfg.symbols = 4;
  cfg.strategies = {pipeline_params(stats::Ctype::pearson)};
  const auto loose = run_pipeline(cfg, scenario.universe, scenario.quotes);
  cfg.channel_capacity = 2;
  cfg.batch_size = 16;
  const auto tight = run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_EQ(tight.master.trades, loose.master.trades);
  EXPECT_NEAR(tight.master.total_pnl, loose.master.total_pnl, 1e-9);
}

}  // namespace
}  // namespace mm::engine
