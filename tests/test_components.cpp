// Unit tests for individual Fig. 1 pipeline components, each driven through a
// minimal dagflow graph with a scripted source and a capturing sink.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "common/rng.hpp"
#include "dagflow/context.hpp"
#include "engine/components.hpp"
#include "engine/messages.hpp"
#include "marketdata/generator.hpp"
#include "stats/corr_engine.hpp"

namespace mm::engine {
namespace {

md::Quote quote_at(md::TimeMs ts, md::SymbolId sym, double mid) {
  md::Quote q;
  q.ts_ms = ts;
  q.symbol = sym;
  q.bid = mid - 0.05;
  q.ask = mid + 0.05;
  q.bid_size = 1;
  q.ask_size = 1;
  return q;
}

// Runs `node` (a plain node, or a group node of `replicas` ranks) with a
// source that emits `input` payloads and returns every payload the node
// emits on its port 0. `status`, when given, receives the node's status.
template <typename Fn>
std::vector<std::vector<std::uint8_t>> drive(Fn node,
                                             std::vector<std::vector<std::uint8_t>> input,
                                             int replicas = 1,
                                             dag::NodeStatus* status = nullptr) {
  std::vector<std::vector<std::uint8_t>> captured;
  dag::Graph g;
  const int src = g.add_node("src", [&](dag::Context& ctx) {
    for (auto& payload : input) ctx.emit(0, std::move(payload));
  });
  int uut;
  if constexpr (std::is_same_v<Fn, dag::GroupNodeFn>)
    uut = g.add_group_node("uut", std::move(node), replicas);
  else
    uut = g.add_node("uut", std::move(node));
  const int sink = g.add_node("sink", [&](dag::Context& ctx) {
    while (auto msg = ctx.recv()) captured.push_back(std::move(msg->bytes));
  });
  g.connect(src, 0, uut, 0);
  g.connect(uut, 0, sink, 0);
  const auto result = g.run();
  if (status != nullptr) *status = result.nodes[static_cast<std::size_t>(uut)];
  return captured;
}

// Records can come from another process: a stage handed a record type it
// does not consume fails its node (the run comes back degraded) instead of
// aborting the process. `error` must appear in the node's error.
template <typename Fn>
void expect_node_fails(Fn node, std::vector<std::vector<std::uint8_t>> input,
                       const std::string& error, int replicas = 1) {
  dag::NodeStatus status;
  drive(std::move(node), std::move(input), replicas, &status);
  EXPECT_TRUE(status.failed);
  EXPECT_NE(status.error.find(error), std::string::npos) << status.error;
}

// `count` snapshots of `symbols` symbols, intervals 0.., with returns from
// interval 1 on.
std::vector<std::vector<std::uint8_t>> snapshots(std::size_t symbols, int count) {
  std::vector<std::vector<std::uint8_t>> out;
  mm::Rng rng(3);
  for (int s = 0; s < count; ++s) {
    Snapshot snap;
    snap.interval = s;
    snap.prices.assign(symbols, 10.0);
    if (s > 0)
      for (std::size_t i = 0; i < symbols; ++i) snap.returns.push_back(rng.normal() * 1e-4);
    out.push_back(snap.pack());
  }
  return out;
}

TEST(FileCollector, BatchesAndFlushesRemainder) {
  std::vector<md::Quote> quotes;
  const md::Session session;
  for (int i = 0; i < 10; ++i)
    quotes.push_back(quote_at(session.open_ms() + i * 1000, 0, 20.0));

  std::vector<std::vector<std::uint8_t>> captured;
  dag::Graph g;
  const int src = g.add_node(
      "collector",
      make_collector(std::make_shared<const std::vector<md::Quote>>(quotes), 4));
  const int sink = g.add_node("sink", [&](dag::Context& ctx) {
    while (auto msg = ctx.recv()) captured.push_back(std::move(msg->bytes));
  });
  g.connect(src, 0, sink, 0);
  g.run();

  ASSERT_EQ(captured.size(), 3u);  // 4 + 4 + 2
  mpi::Unpacker last(captured.back());
  ASSERT_EQ(static_cast<RecordType>(last.get<std::uint8_t>()), RecordType::quote_batch);
  EXPECT_EQ(QuoteBatch::unpack(last).quotes.size(), 2u);
}

TEST(CleanerNode, FiltersWithinBatches) {
  const md::Session session;
  QuoteBatch batch;
  for (int i = 0; i < 60; ++i)
    batch.quotes.push_back(quote_at(session.open_ms() + i * 500, 0, 30.0));
  batch.quotes.push_back(quote_at(session.open_ms() + 60 * 500, 0, 90.0));  // outlier

  const auto captured = drive(make_cleaner(1, md::CleanerConfig{}), {batch.pack()});
  ASSERT_EQ(captured.size(), 1u);
  mpi::Unpacker u(captured[0]);
  ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::quote_batch);
  EXPECT_EQ(QuoteBatch::unpack(u).quotes.size(), 60u);
}

TEST(CleanerNode, UnexpectedRecordTypeFailsTheNode) {
  expect_node_fails(make_cleaner(1, md::CleanerConfig{}), {Snapshot{}.pack()},
                    "cleaner: unexpected record type 2");
}

TEST(SnapshotStage, EmitsEveryIntervalWithCarryForward) {
  const md::Session session;
  QuoteBatch batch;
  batch.quotes.push_back(quote_at(session.open_ms() + 1000, 0, 10.0));
  batch.quotes.push_back(quote_at(session.open_ms() + 95'000, 0, 12.0));  // interval 3

  const auto captured =
      drive(make_snapshot_stage(1, session, 30, {10.0}), {batch.pack()});
  ASSERT_EQ(captured.size(), 780u);  // one per interval, EOS flush included

  // Interval 0 closes at the first price; intervals 1-2 carry it forward;
  // interval 3 onward carries the second price.
  const auto snap_at = [&](std::size_t s) {
    mpi::Unpacker u(captured[s]);
    EXPECT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::snapshot);
    return Snapshot::unpack(u);
  };
  EXPECT_DOUBLE_EQ(snap_at(0).prices[0], 10.0);
  EXPECT_DOUBLE_EQ(snap_at(2).prices[0], 10.0);
  EXPECT_DOUBLE_EQ(snap_at(3).prices[0], 12.0);
  EXPECT_DOUBLE_EQ(snap_at(779).prices[0], 12.0);
  // Returns: empty at s=0, log-return at s=3, zero where carried.
  EXPECT_TRUE(snap_at(0).returns.empty());
  EXPECT_NEAR(snap_at(3).returns[0], std::log(12.0 / 10.0), 1e-12);
  EXPECT_DOUBLE_EQ(snap_at(2).returns[0], 0.0);
  // Intervals are sequential.
  for (std::size_t s = 0; s < 780; ++s)
    EXPECT_EQ(snap_at(s).interval, static_cast<std::int64_t>(s));
}

TEST(SnapshotStage, UnexpectedRecordTypeFailsTheNode) {
  expect_node_fails(make_snapshot_stage(1, md::Session{}, 30, {10.0}), {CorrFrame{}.pack()},
                    "snapshot: unexpected record type 3");
}

TEST(CorrelationStage, FramesInvalidUntilWindowFills) {
  const md::Session session;
  // Feed synthetic snapshots directly.
  std::vector<std::vector<std::uint8_t>> input;
  mm::Rng rng(3);
  for (int s = 0; s < 30; ++s) {
    Snapshot snap;
    snap.interval = s;
    snap.prices = {10.0, 20.0};
    if (s > 0) snap.returns = {rng.normal() * 1e-4, rng.normal() * 1e-4};
    input.push_back(snap.pack());
  }

  const auto captured = drive(
      make_correlation_stage(2, /*corr_window=*/10, true, {}, /*fan_out=*/1), input,
      /*replicas=*/1);
  ASSERT_EQ(captured.size(), 30u);
  for (std::size_t s = 0; s < 30; ++s) {
    mpi::Unpacker u(captured[s]);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::corr_frame);
    const auto frame = CorrFrame::unpack(u);
    // Window of 10 returns fills at interval 10.
    EXPECT_EQ(frame.valid, s >= 10) << "interval " << s;
    if (frame.valid) {
      ASSERT_EQ(frame.pearson.size(), 1u);
      ASSERT_EQ(frame.maronna.size(), 1u);
      EXPECT_GE(frame.pearson[0], -1.0);
      EXPECT_LE(frame.pearson[0], 1.0);
    }
  }
}

TEST(CorrelationStage, UnexpectedRecordTypeFailsTheNode) {
  // Two members with no replica deadline: the run only returns because the
  // failing leader releases its replica.
  auto input = snapshots(2, 3);
  input.push_back(QuoteBatch{}.pack());
  expect_node_fails(make_correlation_stage(2, /*corr_window=*/2, true, {}, /*fan_out=*/1),
                    std::move(input), "correlation: unexpected record type 1",
                    /*replicas=*/2);
}

TEST(CorrelationStage, ShortShardFromAReplicaFailsTheNode) {
  // Rank 1 plays a replica that speaks the group protocol (rounds on tag 1,
  // {round_no, block} answers on tag 2) but answers with a block of the
  // wrong size; the leader is the real stage.
  const dag::GroupNodeFn stage =
      make_correlation_stage(3, /*corr_window=*/2, true, {}, /*fan_out=*/1);
  const dag::GroupNodeFn node = [stage](dag::Context* ctx, mpi::Comm& group) {
    if (group.rank() == 0) return stage(ctx, group);
    while (true) {
      const auto bytes = group.recv(0, /*tag_round=*/1);
      mpi::Unpacker u(bytes);
      if (u.get<std::uint8_t>() == 0) return;  // round_done
      mpi::Packer shard;
      shard.put<std::uint64_t>(u.get<std::uint64_t>());
      shard.put_vector(std::vector<double>(7, 0.5));
      group.send(0, /*tag_shard=*/2, shard.bytes());
    }
  };
  expect_node_fails(node, snapshots(3, 4),
                    "correlation: replica 1 sent 7 Maronna values for a 1-pair block",
                    /*replicas=*/2);
}

// The correlation group's frames carry exactly what one cold Combined
// CorrelationCalculator computes from the same returns, bit for bit, at any
// group size: each member's Maronna block must land at its block_begin
// offset of the canonical pair order, and the leader's Pearson must cover
// every pair.
class CorrelationStageParity : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(GroupSizes, CorrelationStageParity,
                         ::testing::Values(1, 2, 3, 5));

TEST_P(CorrelationStageParity, FramesMatchColdCalculatorBitForBit) {
  constexpr std::size_t symbols = 7;  // 21 pairs: uneven blocks at 2 and 5
  constexpr std::int64_t window = 12;
  constexpr std::int64_t steps = 40;
  mm::Rng rng(29);
  std::vector<std::vector<double>> returns(steps);
  std::vector<std::vector<std::uint8_t>> input;
  for (std::int64_t s = 0; s < steps; ++s) {
    Snapshot snap;
    snap.interval = s;
    snap.prices.assign(symbols, 10.0);
    if (s > 0) {
      const double f = rng.normal();
      for (std::size_t i = 0; i < symbols; ++i)
        snap.returns.push_back(1e-4 * (0.7 * f + rng.normal()));
      // Outlier burst: three symbols jump together for four intervals.
      if (s >= 18 && s < 22)
        for (std::size_t i = 0; i < 3; ++i) snap.returns[i] += 4e-3;
    }
    returns[static_cast<std::size_t>(s)] = snap.returns;
    input.push_back(snap.pack());
  }

  const auto captured =
      drive(make_correlation_stage(symbols, window, /*need_maronna=*/true, {},
                                   /*fan_out=*/1),
            input, /*replicas=*/GetParam());
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(steps));

  stats::CorrEngineConfig cfg;
  cfg.type = stats::Ctype::combined;
  cfg.window = static_cast<std::size_t>(window);
  stats::CorrelationCalculator calc(cfg, symbols);
  const auto pairs = stats::all_pairs(symbols);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (std::int64_t s = 0; s < steps; ++s) {
    const auto& r = returns[static_cast<std::size_t>(s)];
    if (!r.empty()) calc.push(r);
    mpi::Unpacker u(captured[static_cast<std::size_t>(s)]);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::corr_frame);
    const auto frame = CorrFrame::unpack(u);
    EXPECT_EQ(frame.interval, s);
    ASSERT_EQ(frame.valid, s >= window) << "interval " << s;
    if (!frame.valid) continue;
    ASSERT_EQ(frame.pearson.size(), pairs.size());
    ASSERT_EQ(frame.maronna.size(), pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_TRUE(same_bits(frame.pearson[k], calc.pearson(pairs[k].i, pairs[k].j)))
          << "pearson pair " << k << " interval " << s;
      EXPECT_TRUE(same_bits(frame.maronna[k], calc.robust(pairs[k].i, pairs[k].j)))
          << "maronna pair " << k << " interval " << s;
    }
  }
}

TEST(StrategyNode, EmitsPairedEntryExitOrdersAndSummary) {
  // Synthesize corr frames that warm up, then force a divergence.
  core::StrategyParams params = core::ParamGrid::base();
  params.avg_window = 5;
  params.divergence_window = 3;
  params.spread_window = 4;
  params.max_holding = 6;
  params.divergence = 0.01;

  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 40; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = true;
    frame.prices = {100.0, 50.0 + 0.25 * s};
    frame.pearson = {s == 30 ? 0.5 : 0.9};
    input.push_back(frame.pack());
  }

  const auto captured = drive(
      make_strategy_stage(params, /*strategy_id=*/7, /*smax=*/780), input);

  // Expect: entry order at s=30, an exit order (HP at s=36), and a summary.
  std::size_t entries = 0, exits = 0, summaries = 0;
  for (const auto& bytes : captured) {
    mpi::Unpacker u(bytes);
    const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
    if (type == RecordType::order_batch) {
      for (const Order& order : OrderBatch::unpack(u).orders) {
        EXPECT_EQ(order.strategy_id, 7);
        if (order.is_entry) {
          ++entries;
          EXPECT_EQ(order.interval, 30);
        } else {
          ++exits;
          // Exit shares cancel the entry exactly (flat after round trip).
        }
      }
    } else if (type == RecordType::strategy_summary) {
      ++summaries;
      EXPECT_EQ(StrategySummary::unpack(u).trades, 1u);
    }
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(exits, 1u);
  EXPECT_EQ(summaries, 1u);
}

TEST(StrategyNode, EmitsOneBatchPerFrameInPairOrderThenFlattenBeforeSummary) {
  // Three symbols, pairs 01 02 12. Pair 01's correlation dips at s=20 (entry,
  // holding-period exit at s=26); pairs 02 and 12 dip together at s=30 and
  // are still open when the day ends at s=33.
  core::StrategyParams params = core::ParamGrid::base();
  params.avg_window = 5;
  params.divergence_window = 3;
  params.spread_window = 4;
  params.max_holding = 6;
  params.divergence = 0.01;

  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 34; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = true;
    frame.prices = {100.0, 50.0 + 0.25 * s, 30.0 + 0.5 * s};
    frame.pearson = {s == 20 ? 0.5 : 0.9, s == 30 ? 0.5 : 0.9, s == 30 ? 0.5 : 0.9};
    input.push_back(frame.pack());
  }
  const auto captured =
      drive(make_strategy_stage(params, /*strategy_id=*/2, /*smax=*/780), input);

  // Each batch: one interval, its pairs in ascending pair order.
  struct Batch {
    std::int64_t interval;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    std::vector<bool> entries;
  };
  std::vector<Batch> batches;
  ASSERT_FALSE(captured.empty());
  for (std::size_t m = 0; m + 1 < captured.size(); ++m) {
    mpi::Unpacker u(captured[m]);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::order_batch)
        << "message " << m;
    const auto batch = OrderBatch::unpack(u);
    ASSERT_FALSE(batch.orders.empty()) << "a frame without orders sends no batch";
    Batch b{batch.orders.front().interval, {}, {}};
    for (const Order& order : batch.orders) {
      EXPECT_EQ(order.interval, b.interval) << "one frame per batch";
      EXPECT_EQ(order.strategy_id, 2);
      b.pairs.emplace_back(order.symbol_i, order.symbol_j);
      b.entries.push_back(order.is_entry != 0);
    }
    batches.push_back(std::move(b));
  }
  mpi::Unpacker last(captured.back());
  ASSERT_EQ(static_cast<RecordType>(last.get<std::uint8_t>()), RecordType::strategy_summary);
  EXPECT_EQ(StrategySummary::unpack(last).trades, 3u);

  using P = std::pair<std::uint32_t, std::uint32_t>;
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches[0].interval, 20);
  EXPECT_EQ(batches[0].pairs, (std::vector<P>{{0, 1}}));
  EXPECT_EQ(batches[0].entries, (std::vector<bool>{true}));
  EXPECT_EQ(batches[1].interval, 26);
  EXPECT_EQ(batches[1].pairs, (std::vector<P>{{0, 1}}));
  EXPECT_EQ(batches[1].entries, (std::vector<bool>{false}));
  EXPECT_EQ(batches[2].interval, 30);
  EXPECT_EQ(batches[2].pairs, (std::vector<P>{{0, 2}, {1, 2}}));
  EXPECT_EQ(batches[2].entries, (std::vector<bool>{true, true}));
  // The end-of-day flatten: one batch at the last interval, ahead of the
  // summary.
  EXPECT_EQ(batches[3].interval, 33);
  EXPECT_EQ(batches[3].pairs, (std::vector<P>{{0, 2}, {1, 2}}));
  EXPECT_EQ(batches[3].entries, (std::vector<bool>{false, false}));
}

TEST(StrategyNode, RejectsFrameNotCoveringUniverse) {
  // Frames can come from another process: one whose coefficient vector does
  // not cover the universe fails the node instead of being indexed.
  core::StrategyParams params = core::ParamGrid::base();
  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 2; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = s == 1;
    frame.prices = {100.0, 50.0, 25.0};
    if (frame.valid) frame.pearson = {0.9};  // 3 symbols need 3 pairs
    input.push_back(frame.pack());
  }
  dag::Graph g;
  const int src = g.add_node("src", [&input](dag::Context& ctx) {
    for (auto& payload : input) ctx.emit(0, std::move(payload));
  });
  const int uut = g.add_node("uut", make_strategy_stage(params, 0, 780));
  const int sink = g.add_node("sink", [](dag::Context& ctx) {
    while (ctx.recv()) {
    }
  });
  g.connect(src, 0, uut, 0);
  g.connect(uut, 0, sink, 0);
  const auto result = g.run();

  const auto& status = result.nodes[static_cast<std::size_t>(uut)];
  EXPECT_TRUE(status.failed);
  EXPECT_NE(status.error.find("interval 1"), std::string::npos) << status.error;
}

TEST(StrategyNode, UnexpectedRecordTypeFailsTheNode) {
  expect_node_fails(make_strategy_stage(core::ParamGrid::base(), 0, 780),
                    {Snapshot{}.pack()}, "strategy: unexpected record type 2");
}

TEST(ClusterStage, EmitsGroupingsAtCadence) {
  // 4 symbols, pairs (canonical): 01 02 03 12 13 23. Frames carry a
  // two-block structure: {0,1} and {2,3} tight, cross weak.
  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 30; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = s >= 5;
    frame.prices = {10, 11, 12, 13};
    frame.pearson = {0.9, 0.1, 0.1, 0.1, 0.1, 0.85};
    input.push_back(frame.pack());
  }

  const auto captured = drive(make_cluster_stage(4, 2, /*cadence=*/10), input);
  // Valid frames at intervals 5..29; cadence 10 -> intervals 10 and 20.
  ASSERT_EQ(captured.size(), 2u);
  for (const auto& bytes : captured) {
    mpi::Unpacker u(bytes);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()),
              RecordType::cluster_snapshot);
    const auto snap = ClusterSnapshot::unpack(u);
    EXPECT_EQ(snap.cluster_count, 2);
    ASSERT_EQ(snap.assignment.size(), 4u);
    EXPECT_EQ(snap.assignment[0], snap.assignment[1]);
    EXPECT_EQ(snap.assignment[2], snap.assignment[3]);
    EXPECT_NE(snap.assignment[0], snap.assignment[2]);
  }
}

TEST(ClusterStage, UnexpectedRecordTypeFailsTheNode) {
  expect_node_fails(make_cluster_stage(4, 2, 1), {Snapshot{}.pack()},
                    "cluster: unexpected record type 2");
}

TEST(ClusterStage, FrameNotCoveringUniverseFailsTheNode) {
  // A 4-symbol universe has 6 pairs; a valid frame of 3 (from another
  // process) must fail the node, not be read past its end.
  CorrFrame frame;
  frame.interval = 0;
  frame.valid = true;
  frame.prices = {10, 11, 12, 13};
  frame.pearson = {0.9, 0.1, 0.1};
  expect_node_fails(make_cluster_stage(4, 2, 1), {frame.pack()},
                    "cluster: corr frame at interval 0 does not cover the 4-symbol universe");
}

TEST(MasterNode, AggregatesAcrossInputs) {
  MasterReport report;
  dag::Graph g;
  const auto emit_orders = [](int count, std::int32_t id) {
    return [count, id](dag::Context& ctx) {
      OrderBatch batch;
      for (int k = 0; k < count; ++k) {
        Order& order = batch.orders.emplace_back();
        order.interval = k;
        order.strategy_id = id;
        order.symbol_i = 0;
        order.symbol_j = 1;
        order.shares_i = 1.0;
        order.shares_j = -2.0;
        order.price_i = 10.0;
        order.price_j = 5.0;
        order.is_entry = 1;
      }
      ctx.emit(0, batch.pack());
      StrategySummary summary;
      summary.strategy_id = id;
      summary.trades = static_cast<std::uint64_t>(count);
      summary.total_pnl = count * 1.5;
      ctx.emit(0, summary.pack());
    };
  };
  const int a = g.add_node("a", emit_orders(3, 1));
  const int b = g.add_node("b", emit_orders(2, 2));
  const int master = g.add_node("master", make_master(&report, /*symbols=*/2));
  g.connect(a, 0, master, 0);
  g.connect(b, 0, master, 1);
  g.run();

  EXPECT_EQ(report.orders, 5u);
  EXPECT_EQ(report.entries, 5u);
  EXPECT_EQ(report.trades, 5u);
  EXPECT_DOUBLE_EQ(report.total_pnl, 7.5);
  EXPECT_DOUBLE_EQ(report.net_shares[0], 5.0);
  EXPECT_DOUBLE_EQ(report.net_shares[1], -10.0);
  EXPECT_EQ(report.basket_count, 3u);  // intervals 0,1,2
  // Netting: intervals 0 and 1 carry orders from both strategies, same side,
  // so raw == netted there; no reduction anywhere (all same-signed).
  EXPECT_DOUBLE_EQ(report.raw_order_shares, report.netted_order_shares);
}

TEST(MasterNode, TotalsFollowStrategyIdNotArrival) {
  // Summaries arrive in id order 2, 1, 0. Added in arrival order the P&Ls
  // sum to 1.0; in id order the 1.0 is absorbed by 1e16 first and the total
  // is 0.0. The totals must not depend on which strategy reports first.
  MasterReport report;
  dag::Graph g;
  const int src = g.add_node("src", [](dag::Context& ctx) {
    const double pnl[] = {1.0, 1e16, -1e16};  // by strategy id
    for (std::int32_t id = 2; id >= 0; --id) {
      StrategySummary summary;
      summary.strategy_id = id;
      summary.trades = 1;
      summary.total_pnl = pnl[id];
      summary.trade_returns = {0.1 * id};
      ctx.emit(0, summary.pack());
    }
  });
  const int master = g.add_node("master", make_master(&report, /*symbols=*/2));
  g.connect(src, 0, master, 0);
  ASSERT_TRUE(g.run().ok());

  EXPECT_EQ(report.trades, 3u);
  EXPECT_EQ(report.total_pnl, 0.0);
  EXPECT_EQ(report.trade_returns, (std::vector<double>{0.0, 0.1, 0.2}));
}

TEST(MasterNode, RejectsSymbolOutsideUniverse) {
  // Orders can come from other processes: a symbol past the universe the
  // master's books are sized for fails the node instead of indexing them.
  MasterReport report;
  dag::Graph g;
  const int src = g.add_node("src", [](dag::Context& ctx) {
    Order order;
    order.symbol_i = 0;
    order.symbol_j = 1;
    order.shares_i = 1.0;
    order.shares_j = -1.0;
    order.price_i = 10.0;
    order.price_j = 10.0;
    OrderBatch batch;
    batch.orders.push_back(order);
    order.interval = 1;
    order.symbol_j = 7;
    batch.orders.push_back(order);
    ctx.emit(0, batch.pack());
  });
  const int master = g.add_node("master", make_master(&report, /*symbols=*/4));
  g.connect(src, 0, master, 0);
  const auto result = g.run();

  EXPECT_FALSE(result.ok());
  const auto& status = result.nodes[static_cast<std::size_t>(master)];
  EXPECT_TRUE(status.failed);
  EXPECT_NE(status.error.find("symbol 7"), std::string::npos) << status.error;
  EXPECT_EQ(report.orders, 1u);  // the bad order was not booked
}

// Runs a master over one scripted payload and returns its node status.
dag::NodeStatus run_master_on(std::vector<std::uint8_t> payload, MasterReport& report) {
  dag::Graph g;
  const int src = g.add_node("src", [&payload](dag::Context& ctx) {
    ctx.emit(0, std::move(payload));
  });
  const int master = g.add_node("master", make_master(&report, /*symbols=*/4));
  g.connect(src, 0, master, 0);
  const auto result = g.run();
  EXPECT_FALSE(result.ok());
  return result.nodes[static_cast<std::size_t>(master)];
}

OrderBatch two_orders() {
  OrderBatch batch;
  for (int k = 0; k < 2; ++k) {
    Order& order = batch.orders.emplace_back();
    order.interval = k;
    order.symbol_i = 0;
    order.symbol_j = 1;
    order.shares_i = 1.0;
    order.shares_j = -1.0;
    order.price_i = 10.0;
    order.price_j = 10.0;
  }
  return batch;
}

TEST(MasterNode, TruncatedOrderBatchFailsTheNode) {
  // Batches can come from other processes: one cut short inside its second
  // order fails the node instead of aborting the process in the decoder.
  auto payload = two_orders().pack();
  payload.resize(payload.size() - 10);
  MasterReport report;
  const auto status = run_master_on(std::move(payload), report);
  EXPECT_TRUE(status.failed);
  EXPECT_NE(status.error.find("order batch of 2 orders"), std::string::npos)
      << status.error;
  EXPECT_EQ(report.orders, 0u);
}

TEST(MasterNode, OversizedOrderBatchCountFailsTheNode) {
  // A count whose byte size wraps 64 bits must not pass the check either.
  for (const std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 60,
                                    ~std::uint64_t{0}}) {
    auto payload = two_orders().pack();
    std::memcpy(payload.data() + 1, &count, sizeof count);  // after the type byte
    MasterReport report;
    const auto status = run_master_on(std::move(payload), report);
    EXPECT_TRUE(status.failed) << count;
    EXPECT_NE(status.error.find("does not fill"), std::string::npos) << status.error;
    EXPECT_EQ(report.orders, 0u);
  }
}

TEST(MasterNode, UnexpectedRecordTypeFailsTheNode) {
  MasterReport report;
  const auto status = run_master_on(CorrFrame{}.pack(), report);
  EXPECT_TRUE(status.failed);
  EXPECT_NE(status.error.find("unexpected record type 3"), std::string::npos)
      << status.error;
}

}  // namespace
}  // namespace mm::engine
