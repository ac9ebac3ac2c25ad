// Causal tracing tests: cross-rank context propagation through the mpmini
// envelope, dagflow frame inheritance, flow-event stitching in the Chrome
// JSON, fault-plan interaction (drops orphan nothing, duplicates don't
// double-finish), the kill -> flight-bundle path, and name truncation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dagflow/context.hpp"
#include "dagflow/graph.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"
#include "mpmini/environment.hpp"
#include "obs/trace.hpp"

namespace mm::obs {
namespace {

using std::chrono::milliseconds;

// Events of `kind` recorded on `ring`, in recording order.
std::vector<TraceEvent> events_of_kind(const TraceRing& ring, std::uint8_t kind) {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < ring.size(); ++i)
    if (ring.event(i).kind == kind) out.push_back(ring.event(i));
  return out;
}

// --- name truncation --------------------------------------------------------

TEST(TraceNames, LongNamesTruncateAtCapacity) {
  TraceSink sink(16);
  TraceRing& ring = sink.ring(0, "p");
  const std::string max_name(kMaxEventName, 'a');       // exactly fits
  const std::string long_name(kMaxEventName + 12, 'b'); // must truncate
  ring.complete(max_name.c_str(), 10, 10);
  ring.complete(long_name.c_str(), 30, 10);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(std::strlen(ring.event(0).name), kMaxEventName);
  EXPECT_EQ(ring.event(0).name, max_name);
  // The truncated copy keeps the first kMaxEventName characters.
  EXPECT_EQ(std::strlen(ring.event(1).name), kMaxEventName);
  EXPECT_EQ(ring.event(1).name, long_name.substr(0, kMaxEventName));
  // And the JSON carries the truncated name, not garbage.
  EXPECT_NE(sink.chrome_json().find(long_name.substr(0, kMaxEventName)),
            std::string::npos);
  EXPECT_EQ(sink.chrome_json().find(long_name), std::string::npos);
}

// --- context plumbing -------------------------------------------------------

TEST(TraceContextApi, ScopesInstallAndRestore) {
  EXPECT_FALSE(current_trace_context().valid());
  const std::uint64_t id = next_trace_id();
  {
    TraceContextScope scope(make_trace_context(id, 7));
    EXPECT_TRUE(current_trace_context().valid());
    EXPECT_EQ(current_trace_context().trace_id, id);
    EXPECT_EQ(current_trace_context().parent_span, 7u);
    {
      TraceContextScope inner(TraceContext{});
      EXPECT_FALSE(current_trace_context().valid());
    }
    EXPECT_EQ(current_trace_context().trace_id, id);
  }
  EXPECT_FALSE(current_trace_context().valid());
  // Allocators never return the 0 sentinel.
  EXPECT_NE(next_trace_id(), 0u);
  EXPECT_NE(next_span_id(), 0u);
}

// --- cross-rank stitching through mpmini ------------------------------------

TEST(TraceCrossRank, SendRecvEmitLinkedFlowEvents) {
  TraceSink sink(256);
  std::uint64_t root_trace = next_trace_id();
  std::atomic<std::uint64_t> recv_trace_id{0};
  std::atomic<std::uint32_t> recv_flow{0};

  mpi::Environment::run(2, [&](mpi::Comm& comm) {
    TraceRing& ring = sink.ring(comm.rank(), "rank");
    TraceRingScope ring_scope(&ring);
    if (comm.rank() == 0) {
      TraceContextScope context_scope(make_trace_context(root_trace));
      comm.send(1, 5, {1, 2, 3});
    } else {
      mpi::RecvStatus status;
      (void)comm.recv(0, 5, &status);
      recv_trace_id = status.trace_id;
      recv_flow = status.flow;
    }
  });

  // The envelope carried the sender's context to the receiver intact.
  EXPECT_EQ(recv_trace_id.load(), root_trace);
  EXPECT_NE(recv_flow.load(), 0u);

  // One flow start on the sender's ring, one finish on the receiver's, same
  // id — that's the arrow the viewer draws.
  const auto starts = events_of_kind(sink.ring(0, "rank"), TraceRing::kFlowStart);
  const auto finishes = events_of_kind(sink.ring(1, "rank"), TraceRing::kFlowFinish);
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(starts[0].flow, finishes[0].flow);
  EXPECT_EQ(starts[0].flow, recv_flow.load());

  // Both endpoints sit inside their enclosing spans ("send" / "recv") so the
  // viewer can bind them.
  ASSERT_EQ(events_of_kind(sink.ring(0, "rank"), TraceRing::kSpan).size(), 1u);
  ASSERT_EQ(events_of_kind(sink.ring(1, "rank"), TraceRing::kSpan).size(), 1u);
  const TraceEvent send_span = events_of_kind(sink.ring(0, "rank"), TraceRing::kSpan)[0];
  const TraceEvent recv_span = events_of_kind(sink.ring(1, "rank"), TraceRing::kSpan)[0];
  EXPECT_STREQ(send_span.name, "send");
  EXPECT_STREQ(recv_span.name, "recv");
  EXPECT_GE(starts[0].ts_ns, send_span.ts_ns);
  EXPECT_LE(starts[0].ts_ns, send_span.ts_ns + send_span.dur_ns);
  EXPECT_GE(finishes[0].ts_ns, recv_span.ts_ns);
  EXPECT_LE(finishes[0].ts_ns, recv_span.ts_ns + recv_span.dur_ns);

  // Serialized form: a "s" and a "f" flow event with matching ids and the
  // enclosing-slice binding point on the finish.
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(TraceCrossRank, UntracedSendsCarryNoHeaderAndEmitNothing) {
  TraceSink sink(256);
  mpi::Environment::run(2, [&](mpi::Comm& comm) {
    TraceRing& ring = sink.ring(comm.rank(), "rank");
    TraceRingScope ring_scope(&ring);
    // No TraceContextScope: the thread context is invalid, so the send goes
    // out untraced even though a ring is attached.
    if (comm.rank() == 0) {
      comm.send(1, 5, {9});
    } else {
      mpi::RecvStatus status;
      (void)comm.recv(0, 5, &status);
      EXPECT_EQ(status.trace_id, 0u);
      EXPECT_EQ(status.flow, 0u);
    }
  });
  EXPECT_EQ(sink.total_events(), 0u);
  EXPECT_EQ(sink.total_flow_starts(), 0u);
  EXPECT_EQ(sink.total_flow_finishes(), 0u);
}

// --- fault-plan interaction -------------------------------------------------

TEST(TraceFaults, DroppedMessagesOrphanNoSpans) {
  TraceSink sink(1024);
  mpi::FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 1.0;  // every user-tag message is dropped in flight
  const std::uint64_t root_trace = next_trace_id();

  mpi::Environment::run(
      2,
      [&](mpi::Comm& comm) {
        TraceRing& ring = sink.ring(comm.rank(), "rank");
        TraceRingScope ring_scope(&ring);
        if (comm.rank() == 0) {
          TraceContextScope context_scope(make_trace_context(root_trace));
          for (int i = 0; i < 8; ++i) comm.send(1, 5, {7});
        } else {
          // Nothing can arrive; every wait times out.
          for (int i = 0; i < 2; ++i)
            EXPECT_FALSE(comm.recv_for(milliseconds{20}, 0, 5).has_value());
        }
      },
      plan);

  // A dropped send emits neither a span nor a flow start: no half-arrows, no
  // spans for messages that never existed downstream.
  EXPECT_EQ(sink.total_flow_starts(), 0u);
  EXPECT_EQ(sink.total_flow_finishes(), 0u);
  EXPECT_EQ(sink.total_events(), 0u);
}

TEST(TraceFaults, DuplicatedMessagesEmitOneFlowFinishEach) {
  TraceSink sink(1024);
  mpi::FaultPlan plan;
  plan.seed = 11;
  plan.duplicate_prob = 1.0;  // every user-tag message arrives twice
  const std::uint64_t root_trace = next_trace_id();
  constexpr int kSends = 8;
  std::atomic<int> traced_recvs{0};
  std::atomic<int> untraced_recvs{0};

  mpi::Environment::run(
      2,
      [&](mpi::Comm& comm) {
        TraceRing& ring = sink.ring(comm.rank(), "rank");
        TraceRingScope ring_scope(&ring);
        if (comm.rank() == 0) {
          TraceContextScope context_scope(make_trace_context(root_trace));
          for (int i = 0; i < kSends; ++i) comm.send(1, 5, {7});
        } else {
          for (int i = 0; i < 2 * kSends; ++i) {
            mpi::RecvStatus status;
            (void)comm.recv(0, 5, &status);
            (status.trace_id != 0 ? traced_recvs : untraced_recvs)++;
          }
        }
      },
      plan);

  // The duplicate copy travels with a cleared header: exactly one of each
  // delivered pair is the causal edge, so flow finishes match flow starts
  // and nothing is double-emitted.
  EXPECT_EQ(traced_recvs.load(), kSends);
  EXPECT_EQ(untraced_recvs.load(), kSends);
  EXPECT_EQ(sink.total_flow_starts(), static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(sink.total_flow_finishes(), static_cast<std::uint64_t>(kSends));
}

// --- dagflow inheritance ----------------------------------------------------

TEST(TraceDagflow, FramesInheritTheContextOfTheMessageThatWokeThem) {
  TraceSink sink(4096);
  const std::uint64_t root_trace = next_trace_id();
  std::mutex seen_mutex;
  std::vector<std::uint64_t> seen;  // consumer-side context per frame

  dag::Graph g;
  const int src = g.add_node("src", [](dag::Context& ctx) {
    for (int i = 0; i < 5; ++i) ctx.emit(0, {static_cast<std::uint8_t>(i)});
  });
  const int dst = g.add_node("dst", [&](dag::Context& ctx) {
    while (auto msg = ctx.recv()) {
      (void)msg;
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(current_trace_context().trace_id);
    }
  });
  g.connect(src, 0, dst, 0);

  dag::RunOptions options;
  options.trace = &sink;
  options.trace_context = make_trace_context(root_trace);
  const auto result = g.run(options);
  for (const auto& node : result.nodes) EXPECT_TRUE(node.ok()) << node.name;

  ASSERT_EQ(seen.size(), 5u);
  // Every frame the source emitted carried the root context (installed on
  // its rank thread by the run harness), and the consumer inherited it the
  // moment recv() handed the frame over.
  for (const std::uint64_t id : seen) EXPECT_EQ(id, root_trace);
  // Data frames stitched: at least one flow pair per frame. Finishes can
  // trail starts — the last credits a consumer returns may go unreceived
  // when the producer has already finished — but never exceed them.
  EXPECT_GE(sink.total_flow_starts(), 5u);
  EXPECT_GE(sink.total_flow_finishes(), 5u);
  EXPECT_LE(sink.total_flow_finishes(), sink.total_flow_starts());
}

// --- kill -> flight bundle --------------------------------------------------

namespace {
std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}
}  // namespace

// --- correlation group overlap ------------------------------------------------

TEST(TraceCorrelationGroup, LeaderComputesItsBlockBeforeGatheringShards) {
  // A 4-member Maronna group: per snapshot the leader sends the round, fills
  // its own block, and only then gathers the replicas' shards — so on the
  // leader's row every corr-step holds a corr-block that ends before the
  // step's first shard recv starts. Program order makes this deterministic.
  md::Universe universe = md::make_universe(4);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  const md::SyntheticDay day(universe, gen, 0);

  TraceSink sink;
  engine::PipelineConfig cfg;
  cfg.symbols = 4;
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = stats::Ctype::combined;
  cfg.strategies = {p};
  cfg.correlation_replicas = 4;
  cfg.trace = &sink;
  // A traced run, so the replicas' shard sends carry a header and the
  // leader's recv of each one emits a "recv" span.
  cfg.trace_context = make_trace_context(next_trace_id());

  const auto result = engine::run_pipeline(cfg, universe, day.quotes());
  EXPECT_FALSE(result.degraded);
  EXPECT_GT(result.stages[3].records_in, 0u);

  // Rank layout (add order): collector=0, cleaner=1, snapshot=2, correlation
  // leader=3 with replicas 4-6, strategy-0=7, master=8.
  const TraceRing& leader = sink.ring(3, "rank 3");
  EXPECT_EQ(leader.dropped(), 0u);
  std::vector<TraceEvent> steps, blocks, recvs;
  for (const TraceEvent& e : events_of_kind(leader, TraceRing::kSpan)) {
    if (std::strcmp(e.name, "corr-step") == 0) steps.push_back(e);
    if (std::strcmp(e.name, "corr-block") == 0) blocks.push_back(e);
    if (std::strcmp(e.name, "recv") == 0) recvs.push_back(e);
  }
  const auto by_start = [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_ns < b.ts_ns;
  };
  std::sort(blocks.begin(), blocks.end(), by_start);
  std::sort(recvs.begin(), recvs.end(), by_start);
  // The first span of `spans` that starts inside `step`, or null.
  const auto first_in = [&](const std::vector<TraceEvent>& spans, const TraceEvent& step) {
    const auto it = std::lower_bound(spans.begin(), spans.end(), step, by_start);
    return it != spans.end() && it->ts_ns < step.ts_ns + step.dur_ns ? &*it : nullptr;
  };
  ASSERT_EQ(steps.size(), result.stages[3].records_in);
  for (const TraceEvent& step : steps) {
    const TraceEvent* block = first_in(blocks, step);
    const TraceEvent* recv = first_in(recvs, step);
    ASSERT_NE(block, nullptr) << "corr-step at " << step.ts_ns;
    ASSERT_NE(recv, nullptr) << "corr-step at " << step.ts_ns;
    EXPECT_LE(block->ts_ns + block->dur_ns, recv->ts_ns) << "corr-step at " << step.ts_ns;
  }
}

TEST(TraceFlight, KilledRankSpansAppearInFlightBundle) {
  md::Universe universe = md::make_universe(4);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  const md::SyntheticDay day(universe, gen, 0);

  const auto flight_dir =
      std::filesystem::temp_directory_path() /
      ("mm_trace_flight_" + std::to_string(static_cast<long long>(::getpid())));
  std::filesystem::remove_all(flight_dir);

  // Rank layout (one rank per node, add order): collector=0, cleaner=1,
  // snapshot=2, correlation=3, strategy-0=4, master=5.
  constexpr int kStrategyRank = 4;
  TraceSink sink;
  engine::PipelineConfig cfg;
  cfg.symbols = 4;
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = stats::Ctype::pearson;
  p.divergence = 0.0005;
  cfg.strategies = {p};
  cfg.batch_size = 64;  // chatty transport: a mid-day kill step lands
  cfg.fault.kill_rank = kStrategyRank;
  cfg.fault.kill_at_op = 150;
  cfg.stage_deadline = milliseconds{1000};
  cfg.replica_deadline = milliseconds{1000};
  cfg.trace = &sink;
  cfg.trace_context = make_trace_context(next_trace_id());
  cfg.live.enabled = true;
  cfg.live.heartbeat_interval = milliseconds{200};
  cfg.live.snapshot_period = milliseconds{100};
  cfg.live.http_port = -1;  // no listener in this test
  cfg.live.flight_dir = flight_dir.string();

  const auto result = engine::run_pipeline(cfg, universe, day.quotes());
  EXPECT_TRUE(result.degraded);

  ASSERT_FALSE(result.live.flight_bundle.empty());
  const std::string trace =
      read_file(std::filesystem::path(result.live.flight_bundle) / "trace.json");
  // The killed rank's ring made it into the postmortem: its row exists, its
  // in-flight spans (send/recv around the kill step) were recorded, and the
  // cross-rank flow stitching survived up to the point of death.
  EXPECT_NE(trace.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"recv\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  // The victim's spans carry the job-root causality: at least one flow
  // endpoint recorded on the dead rank's own ring.
  const bool victim_flow =
      sink.ring(kStrategyRank, "rank 4").size() > 0;
  EXPECT_TRUE(victim_flow);
  std::filesystem::remove_all(flight_dir);
}

}  // namespace
}  // namespace mm::obs
