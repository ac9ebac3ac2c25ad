// Fault-matrix tests for the Fig. 1 pipeline: kill each stage mid-day or at
// any of its first operations, drop or delay messages in flight, kill a
// correlation replica — and in every case run_pipeline() must RETURN
// (degraded and reporting the fault) rather than hang. Fault injection is
// deterministic (pure envelope hashes), so degraded runs are reproducible
// for a given seed.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <string>

#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"

namespace mm::engine {
namespace {

using std::chrono::milliseconds;

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

core::StrategyParams pipeline_params(double divergence = 0.0005) {
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = stats::Ctype::pearson;
  p.divergence = divergence;
  return p;
}

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.symbols = 4;
  cfg.strategies = {pipeline_params()};
  // Small batches keep even the collector chatty (hundreds of transport ops
  // per day), so a mid-day kill step lands in every stage.
  cfg.batch_size = 64;
  return cfg;
}

// Rank layout of base_config's graph (one rank per node, in add order):
// collector=0, cleaner=1, snapshot=2, correlation=3, strategy-0=4, master=5.
constexpr int rank_count = 6;
constexpr int master_rank = 5;

class FaultMatrixKill : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(EveryStage, FaultMatrixKill,
                         ::testing::Range(0, rank_count));

TEST_P(FaultMatrixKill, KilledStageMidDayStillReturnsWithFaultReported) {
  const int victim = GetParam();
  const auto scenario = make_scenario(4, 0);

  // Healthy reference: no faults reported, and enough traffic through every
  // stage that a mid-day kill step actually lands.
  const auto healthy = run_pipeline(base_config(), scenario.universe, scenario.quotes);
  ASSERT_FALSE(healthy.degraded);
  ASSERT_TRUE(healthy.faults.empty());
  ASSERT_GE(healthy.master.orders + 1, 3u);  // master sees >= 3 records

  PipelineConfig cfg = base_config();
  cfg.fault.kill_rank = victim;
  // The master only handles orders and summaries, so its op budget is far
  // smaller than the streaming stages'; scale its kill step to the healthy
  // run's record count so the kill lands mid-day (KillAnywhere covers the
  // first ops).
  cfg.fault.kill_at_op =
      victim == master_rank
          ? 10 + healthy.stages.back().records_in / 2
          : 80;
  cfg.stage_deadline = milliseconds{1000};
  cfg.replica_deadline = milliseconds{1000};

  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);

  // The whole point: it RETURNED, degraded, and says who died.
  EXPECT_TRUE(result.degraded) << "victim rank " << victim;
  ASSERT_FALSE(result.faults.empty()) << "victim rank " << victim;
  bool victim_reported = false;
  for (const auto& fault : result.faults)
    if (fault.failed) victim_reported = true;
  EXPECT_TRUE(victim_reported) << "victim rank " << victim;
  EXPECT_LT(result.wall_seconds, 60.0);
}

// Kill-anywhere sweep: an 8-symbol day with one Pearson and one Combined
// strategy, so the correlation node is a two-rank group. Each victim rank is
// killed at its first three operations and at half and nine tenths of the
// frames a healthy day moves through its node; no step may leave a peer
// waiting past its deadline. Rank layout: collector=0, cleaner=1,
// snapshot=2, correlation leader=3 and replica=4, strategy-0=5,
// strategy-1=6, master=7.
PipelineConfig sweep_config() {
  PipelineConfig cfg = base_config();
  cfg.symbols = 8;
  core::StrategyParams combined = pipeline_params(0.001);
  combined.ctype = stats::Ctype::combined;
  cfg.strategies = {pipeline_params(), combined};
  cfg.correlation_replicas = 2;
  return cfg;
}

constexpr int sweep_rank_count = 8;
constexpr int sweep_replica_rank = 4;
// World rank -> index of its node in PipelineResult::stages.
constexpr std::array<std::size_t, sweep_rank_count> sweep_stage_of_rank = {
    0, 1, 2, 3, 3, 4, 5, 6};

class KillAnywhere : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(EveryRank, KillAnywhere,
                         ::testing::Range(0, sweep_rank_count));

TEST_P(KillAnywhere, EveryKillStepReturnsDegradedNamingTheVictim) {
  const int victim = GetParam();
  const auto scenario = make_scenario(8, 5);

  // Deadlines do not change a healthy day's frame counts, so the reference
  // runs without them (and cannot time out on a slow sanitizer build).
  const auto healthy = run_pipeline(sweep_config(), scenario.universe, scenario.quotes);
  ASSERT_FALSE(healthy.degraded);
  const StageReport& stage =
      healthy.stages.at(sweep_stage_of_rank[static_cast<std::size_t>(victim)]);
  // F: frames through the victim's node. A replica serves one round per
  // frame into its leader. Every rank spends at least one op per frame, so
  // each step below lands before the rank's day ends.
  const std::uint64_t frames = victim == sweep_replica_rank
                                   ? stage.records_in
                                   : stage.records_in + stage.records_out;
  ASSERT_GE(frames, 4u) << stage.name;
  const auto ceil_tenths = [frames](std::uint64_t tenths) {
    return (frames * tenths + 9) / 10;
  };

  for (const std::uint64_t op :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, ceil_tenths(5),
        ceil_tenths(9)}) {
    SCOPED_TRACE("victim rank " + std::to_string(victim) + " (" + stage.name +
                 ") killed at op " + std::to_string(op));
    PipelineConfig cfg = sweep_config();
    cfg.fault.kill_rank = victim;
    cfg.fault.kill_at_op = op;
    cfg.stage_deadline = milliseconds{250};
    cfg.replica_deadline = milliseconds{250};

    const auto start = std::chrono::steady_clock::now();
    const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;

    EXPECT_LT(took.count(), 10.0);
    EXPECT_TRUE(result.degraded);
    bool victim_failed = false;
    for (const auto& fault : result.faults)
      if (fault.name == stage.name && fault.failed) victim_failed = true;
    EXPECT_TRUE(victim_failed);
  }
}

TEST(FaultMatrix, DroppedMessagesLeaveDegradedReportNotHang) {
  const auto scenario = make_scenario(4, 1);
  PipelineConfig cfg = base_config();
  cfg.fault.seed = 2026;
  cfg.fault.drop_prob = 0.05;
  // Small channels so lost flow-control credits exhaust an edge's capacity
  // mid-day: the producer must then declare the edge dead within its
  // deadline instead of waiting for credits that will never come.
  cfg.channel_capacity = 16;
  cfg.stage_deadline = milliseconds{1000};

  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.faults.empty());
  EXPECT_LT(result.wall_seconds, 60.0);

  // Determinism: the same seed injects the same fault set, so the degraded
  // outcome is reproducible. (Record counts are NOT asserted equal — how far
  // a stage gets before a deadline fires is wall-clock dependent.)
  const auto replay = run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_TRUE(replay.degraded);
}

TEST(FaultMatrix, DelaysChangeTimingButNotResults) {
  const auto scenario = make_scenario(4, 2);
  const auto healthy = run_pipeline(base_config(), scenario.universe, scenario.quotes);

  PipelineConfig cfg = base_config();
  cfg.fault.seed = 7;
  cfg.fault.delay_prob = 0.3;
  cfg.fault.delay = std::chrono::microseconds{300};

  const auto delayed = run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_FALSE(delayed.degraded);
  EXPECT_EQ(delayed.master.trades, healthy.master.trades);
  EXPECT_EQ(delayed.master.orders, healthy.master.orders);
  EXPECT_NEAR(delayed.master.total_pnl, healthy.master.total_pnl, 1e-9);
}

TEST(FaultMatrix, KilledCorrelationReplicaReshardsWithIdenticalResults) {
  // Fig. 1's parallel correlation engine with one replica killed mid-day:
  // the leader computes the dead replica's Maronna block for the in-flight
  // round and re-splits the pairs over the survivors from the next round
  // on, so the day's trading is BIT-IDENTICAL to the healthy run — the
  // degradation is visible only in the fault report and the stage's fault
  // counter. A Combined strategy makes the group shard Maronna blocks (a
  // Pearson-only day runs one correlation rank).
  const auto scenario = make_scenario(4, 3);
  PipelineConfig cfg = base_config();
  cfg.strategies.front().ctype = stats::Ctype::combined;
  cfg.correlation_replicas = 3;  // group ranks 3 (leader), 4, 5

  const auto healthy = run_pipeline(cfg, scenario.universe, scenario.quotes);
  ASSERT_FALSE(healthy.degraded);
  ASSERT_EQ(healthy.stages[3].faults, 0u);

  PipelineConfig faulted = cfg;
  faulted.fault.kill_rank = 4;  // first non-leader replica
  // A replica does one recv and one send per round: op 400 lands after the
  // M=100 window has filled, while its block carries Maronna values.
  faulted.fault.kill_at_op = 400;
  faulted.replica_deadline = milliseconds{1000};

  const auto result = run_pipeline(faulted, scenario.universe, scenario.quotes);

  EXPECT_EQ(result.master.trades, healthy.master.trades);
  EXPECT_EQ(result.master.orders, healthy.master.orders);
  const auto& got = result.master.strategy_summaries;
  const auto& want = healthy.master.strategy_summaries;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].trades, want[w].trades) << "strategy " << w;
    EXPECT_EQ(got[w].total_pnl, want[w].total_pnl) << "strategy " << w;
    EXPECT_EQ(got[w].trade_returns, want[w].trade_returns) << "strategy " << w;
  }

  EXPECT_GE(result.stages[3].faults, 1u);  // at least one reshard event
  EXPECT_TRUE(result.degraded);
  bool corr_reported = false;
  for (const auto& fault : result.faults)
    if (fault.name == "correlation" && fault.failed) corr_reported = true;
  EXPECT_TRUE(corr_reported);
  // The master saw clean end-of-day streams: degradation stayed inside the
  // correlation group.
  EXPECT_FALSE(result.master.degraded);
  EXPECT_TRUE(result.master.failed_strategies.empty());
}

TEST(FaultMatrix, DeadStrategyWorkerDegradesOnlyThatStrategy) {
  // Two strategy workers; one is killed mid-day. The master must mark ONLY
  // that strategy as failed, and the surviving strategy's full day must
  // match a single-strategy healthy run exactly.
  const auto scenario = make_scenario(4, 4);

  PipelineConfig solo = base_config();  // strategy-0 alone, healthy
  const auto healthy_solo = run_pipeline(solo, scenario.universe, scenario.quotes);
  ASSERT_GT(healthy_solo.master.trades, 0u);

  PipelineConfig cfg = base_config();
  cfg.strategies = {pipeline_params(0.0005), pipeline_params(0.001)};
  // Ranks: collector=0, cleaner=1, snapshot=2, corr=3, strategy-0=4,
  // strategy-1=5, master=6.
  cfg.fault.kill_rank = 5;
  cfg.fault.kill_at_op = 150;
  cfg.stage_deadline = milliseconds{1000};

  const auto result = run_pipeline(cfg, scenario.universe, scenario.quotes);

  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.master.degraded);
  EXPECT_EQ(result.master.failed_strategies, std::vector<int>{1});
  // Trades come from end-of-day summaries; strategy-1 died before its
  // summary, so the books hold exactly the surviving strategy's full day.
  EXPECT_EQ(result.master.trades, healthy_solo.master.trades);
  EXPECT_NEAR(result.master.total_pnl, healthy_solo.master.total_pnl, 1e-9);
  bool strategy1_reported = false;
  for (const auto& fault : result.faults)
    if (fault.name == "strategy-1" && fault.failed) strategy1_reported = true;
  EXPECT_TRUE(strategy1_reported);
  EXPECT_LT(result.wall_seconds, 60.0);
}

}  // namespace
}  // namespace mm::engine
