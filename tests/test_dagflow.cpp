// Tests for the dagflow DAG stream-processing engine: validation, delivery,
// fan-in/fan-out, EOS propagation and bounded-channel backpressure.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dagflow/context.hpp"
#include "dagflow/graph.hpp"
#include "mpmini/serde.hpp"

namespace mm::dag {
namespace {

std::vector<std::uint8_t> pack_int(int v) {
  mpi::Packer p;
  p.put<int>(v);
  return p.take();
}

int unpack_int(const std::vector<std::uint8_t>& bytes) {
  mpi::Unpacker u(bytes);
  return u.get<int>();
}

TEST(GraphValidate, RejectsEmptyGraph) {
  Graph g;
  EXPECT_FALSE(g.validate().has_value());
}

TEST(GraphValidate, RejectsSelfLoop) {
  Graph g;
  const int a = g.add_node("a", [](Context&) {});
  g.connect(a, 0, a, 0);
  EXPECT_FALSE(g.validate().has_value());
}

TEST(GraphValidate, RejectsCycle) {
  Graph g;
  const int a = g.add_node("a", [](Context&) {});
  const int b = g.add_node("b", [](Context&) {});
  const int c = g.add_node("c", [](Context&) {});
  g.connect(a, 0, b, 0);
  g.connect(b, 0, c, 0);
  g.connect(c, 0, a, 0);
  EXPECT_FALSE(g.validate().has_value());
}

TEST(GraphValidate, RejectsDuplicatePorts) {
  Graph g;
  const int a = g.add_node("a", [](Context&) {});
  const int b = g.add_node("b", [](Context&) {});
  const int c = g.add_node("c", [](Context&) {});
  g.connect(a, 0, c, 0);
  g.connect(b, 0, c, 0);  // duplicate input port 0 on c
  EXPECT_FALSE(g.validate().has_value());
}

TEST(GraphValidate, RejectsBadCapacity) {
  Graph g;
  const int a = g.add_node("a", [](Context&) {});
  const int b = g.add_node("b", [](Context&) {});
  g.connect(a, 0, b, 0, 0);
  EXPECT_FALSE(g.validate().has_value());
}

TEST(GraphValidate, AcceptsDiamond) {
  Graph g;
  const int src = g.add_node("src", [](Context&) {});
  const int l = g.add_node("l", [](Context&) {});
  const int r = g.add_node("r", [](Context&) {});
  const int sink = g.add_node("sink", [](Context&) {});
  g.connect(src, 0, l, 0);
  g.connect(src, 1, r, 0);
  g.connect(l, 0, sink, 0);
  g.connect(r, 0, sink, 1);
  EXPECT_TRUE(g.validate().has_value());
}

TEST(GraphRun, LinearPipelineDeliversInOrder) {
  constexpr int n = 200;
  std::vector<int> received;
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < n; ++i) ctx.emit(0, pack_int(i));
  });
  const int mid = g.add_node("mid", [](Context& ctx) {
    while (auto msg = ctx.recv()) ctx.emit(0, pack_int(unpack_int(msg->bytes) * 2));
  });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) received.push_back(unpack_int(msg->bytes));
  });
  g.connect(src, 0, mid, 0);
  g.connect(mid, 0, sink, 0);
  g.run();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i * 2);
}

TEST(GraphRun, FanOutFanIn) {
  constexpr int n = 100;
  std::atomic<long> total{0};
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < n; ++i) {
      ctx.emit(i % 2, pack_int(i));  // alternate between two workers
    }
  });
  const auto worker = [](Context& ctx) {
    while (auto msg = ctx.recv()) ctx.emit(0, msg->bytes);
  };
  const int w0 = g.add_node("w0", worker);
  const int w1 = g.add_node("w1", worker);
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) total += unpack_int(msg->bytes);
  });
  g.connect(src, 0, w0, 0);
  g.connect(src, 1, w1, 0);
  g.connect(w0, 0, sink, 0);
  g.connect(w1, 0, sink, 1);
  g.run();
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(GraphRun, RecvReportsCorrectPort) {
  std::vector<int> ports;
  Graph g;
  const int a = g.add_node("a", [](Context& ctx) { ctx.emit(0, pack_int(1)); });
  const int b = g.add_node("b", [](Context& ctx) { ctx.emit(0, pack_int(2)); });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) {
      if (msg->port == 3) {
        EXPECT_EQ(unpack_int(msg->bytes), 1);
      }
      if (msg->port == 9) {
        EXPECT_EQ(unpack_int(msg->bytes), 2);
      }
      ports.push_back(msg->port);
    }
  });
  g.connect(a, 0, sink, 3);
  g.connect(b, 0, sink, 9);
  g.run();
  ASSERT_EQ(ports.size(), 2u);
}

TEST(GraphRun, BackpressureBoundsInFlightMessages) {
  // A fast producer into a slow consumer over a capacity-4 edge: the producer
  // can never be more than capacity + 1 messages ahead of the consumer.
  constexpr int n = 300;
  constexpr int capacity = 4;
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  std::atomic<int> worst_lead{0};

  Graph g;
  const int src = g.add_node("src", [&](Context& ctx) {
    for (int i = 0; i < n; ++i) {
      ctx.emit(0, pack_int(i));
      const int lead = ++produced - consumed.load();
      int expected = worst_lead.load();
      while (lead > expected && !worst_lead.compare_exchange_weak(expected, lead)) {
      }
    }
  });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) ++consumed;
  });
  g.connect(src, 0, sink, 0, capacity);
  g.run();

  EXPECT_EQ(consumed.load(), n);
  // Allow one in-flight beyond capacity (the message being emitted).
  EXPECT_LE(worst_lead.load(), capacity + 1);
}

TEST(GraphRun, SinkThatStopsEarlyDoesNotDeadlock) {
  // The harness drains remaining input after the node function returns, so a
  // producer blocked on credits always finishes.
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 500; ++i) ctx.emit(0, pack_int(i));
  });
  const int sink = g.add_node("sink", [](Context& ctx) {
    // Consume only 3 messages, then return.
    for (int i = 0; i < 3; ++i) (void)ctx.recv();
  });
  g.connect(src, 0, sink, 0, 2);
  g.run();  // must terminate
  SUCCEED();
}

TEST(GraphRun, MessageCountersTrackTraffic) {
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 17; ++i) ctx.emit(0, pack_int(i));
  });
  const int sink = g.add_node("sink", [](Context& ctx) {
    while (ctx.recv()) {
    }
  });
  g.connect(src, 0, sink, 0);
  obs::Registry registry;
  RunOptions options;
  options.metrics = &registry;
  g.run(options);
  EXPECT_EQ(registry.counter("dag.src.frames_out").value(), 17u);
  EXPECT_EQ(registry.counter("dag.sink.frames_in").value(), 17u);
}

TEST(GroupNode, LeaderOwnsEdgesMembersCompute) {
  // A 3-replica group node: the leader receives ints and sends each one to
  // the other members, every rank contributes rank+value, and the leader
  // emits the sum. Verifies group traffic and edge ownership coexist.
  constexpr int replicas = 3;
  std::vector<int> received;
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 20; ++i) ctx.emit(0, pack_int(i));
  });
  const int grp = g.add_group_node(
      "group",
      [](Context* ctx, mpi::Comm& group) {
        constexpr int kValue = 1;
        constexpr int kPart = 2;
        while (true) {
          if (group.rank() != 0) {
            const int value = group.recv_value<int>(0, kValue);
            if (value < 0) return;
            group.send_value<int>(0, kPart, value + group.rank());
            continue;
          }
          auto msg = ctx->recv();
          const int value = msg ? unpack_int(msg->bytes) : -1;
          for (int r = 1; r < group.size(); ++r) group.send_value<int>(r, kValue, value);
          if (value < 0) return;
          int sum = value;
          for (int r = 1; r < group.size(); ++r) sum += group.recv_value<int>(r, kPart);
          ctx->emit(0, pack_int(sum));
        }
      },
      replicas);
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) received.push_back(unpack_int(msg->bytes));
  });
  g.connect(src, 0, grp, 0);
  g.connect(grp, 0, sink, 0);
  EXPECT_EQ(g.rank_count(), 5);
  g.run();

  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    // sum over ranks r of (i + r) = 3i + 0 + 1 + 2.
    EXPECT_EQ(received[static_cast<std::size_t>(i)], 3 * i + 3);
  }
}

TEST(GroupNode, SingleReplicaEquivalentToPlainNode) {
  std::vector<int> received;
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 5; ++i) ctx.emit(0, pack_int(i * 7));
  });
  const int grp = g.add_group_node(
      "solo",
      [](Context* ctx, mpi::Comm& group) {
        EXPECT_EQ(group.size(), 1);
        while (auto msg = ctx->recv()) ctx->emit(0, std::move(msg->bytes));
      },
      1);
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) received.push_back(unpack_int(msg->bytes));
  });
  g.connect(src, 0, grp, 0);
  g.connect(grp, 0, sink, 0);
  g.run();
  ASSERT_EQ(received.size(), 5u);
  EXPECT_EQ(received[4], 28);
}

TEST(GraphDot, RendersNodesAndEdges) {
  Graph g;
  const int a = g.add_node("source", [](Context&) {});
  const int b = g.add_node("sink", [](Context&) {});
  g.connect(a, 0, b, 2, 17);
  const auto dot = g.to_dot();
  EXPECT_NE(dot.find("digraph dagflow"), std::string::npos);
  EXPECT_NE(dot.find("source"), std::string::npos);
  EXPECT_NE(dot.find("sink"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("cap=17"), std::string::npos);
}

TEST(GraphRun, RandomLayeredTopologiesConserveTokens) {
  // Property test: random layered DAGs (sources -> relays -> sinks) must
  // deliver every emitted token exactly once, whatever the topology.
  std::uint64_t rng_state = 12345;
  const auto next = [&rng_state](std::uint64_t bound) {
    rng_state = rng_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng_state >> 33) % bound;
  };

  for (int trial = 0; trial < 6; ++trial) {
    const int sources = 1 + static_cast<int>(next(3));
    const int relays = 1 + static_cast<int>(next(4));
    const int tokens_per_source = 30 + static_cast<int>(next(50));

    std::atomic<long> emitted{0};
    std::atomic<long> received{0};

    Graph g;
    std::vector<int> source_ids, relay_ids;
    for (int s = 0; s < sources; ++s) {
      source_ids.push_back(g.add_node("src", [&, tokens_per_source](Context& ctx) {
        // Spray tokens round-robin over however many outputs this source has.
        const auto outs = ctx.output_count();
        for (int i = 0; i < tokens_per_source; ++i) {
          ctx.emit(static_cast<int>(static_cast<std::size_t>(i) % outs),
                   pack_int(i));
          ++emitted;
        }
      }));
    }
    for (int r = 0; r < relays; ++r) {
      relay_ids.push_back(g.add_node("relay", [](Context& ctx) {
        while (auto msg = ctx.recv()) ctx.emit(0, std::move(msg->bytes));
      }));
    }
    const int sink = g.add_node("sink", [&](Context& ctx) {
      while (ctx.recv()) ++received;
    });

    // Each source feeds every relay (one port per edge); relays feed the sink.
    for (int s = 0; s < sources; ++s)
      for (int r = 0; r < relays; ++r)
        g.connect(source_ids[static_cast<std::size_t>(s)], r,
                  relay_ids[static_cast<std::size_t>(r)], s,
                  1 + static_cast<int>(next(8)));
    for (int r = 0; r < relays; ++r)
      g.connect(relay_ids[static_cast<std::size_t>(r)], 0, sink, r);

    ASSERT_TRUE(g.validate().has_value()) << "trial " << trial;
    g.run();
    EXPECT_EQ(received.load(), emitted.load()) << "trial " << trial;
    EXPECT_EQ(emitted.load(), static_cast<long>(sources) * tokens_per_source);

    emitted = 0;
    received = 0;
  }
}

TEST(GraphRun, InvalidGraphThrows) {
  Graph g;
  const int a = g.add_node("a", [](Context&) {});
  g.connect(a, 0, a, 0);
  EXPECT_THROW(g.run(), std::runtime_error);
}

// --- failure containment ----------------------------------------------------

TEST(Containment, NodeExceptionIsReportedNotFatal) {
  // Regression: an exception escaping a node function used to unwind through
  // the rank thread and tear the whole process down. It must be contained
  // and reported per node instead.
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 10; ++i) ctx.emit(0, pack_int(i));
  });
  const int bad = g.add_node("bad", [](Context& ctx) {
    (void)ctx.recv();
    throw std::runtime_error("boom at message 1");
  });
  g.connect(src, 0, bad, 0);

  const RunResult result = g.run();
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(src)].failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(bad)].failed);
  EXPECT_NE(result.nodes[static_cast<std::size_t>(bad)].error.find("boom"),
            std::string::npos);
  EXPECT_EQ(result.nodes[static_cast<std::size_t>(bad)].name, "bad");
}

TEST(Containment, FailureMarkerPoisonsTheDownstreamLineage) {
  // src -> mid -> sink. mid dies after forwarding 5 messages; the sink must
  // see those 5, then a closed-and-poisoned input — and the healthy relay in
  // between must re-propagate the marker, not launder it into a clean EOS.
  std::vector<int> sink_got;
  bool sink_saw_failure = false;
  std::vector<int> sink_failed_ports;

  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 20; ++i) ctx.emit(0, pack_int(i));
  });
  const int mid = g.add_node("mid", [](Context& ctx) {
    int forwarded = 0;
    while (auto msg = ctx.recv()) {
      ctx.emit(0, std::move(msg->bytes));
      if (++forwarded == 5) throw std::runtime_error("mid died");
    }
  });
  const int relay = g.add_node("relay", [](Context& ctx) {
    while (auto msg = ctx.recv()) ctx.emit(0, std::move(msg->bytes));
  });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (auto msg = ctx.recv()) sink_got.push_back(unpack_int(msg->bytes));
    sink_saw_failure = ctx.upstream_failed();
    sink_failed_ports = ctx.failed_input_ports();
  });
  g.connect(src, 0, mid, 0);
  g.connect(mid, 0, relay, 0);
  g.connect(relay, 0, sink, 0);

  const RunResult result = g.run();
  EXPECT_EQ(sink_got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(sink_saw_failure);
  EXPECT_EQ(sink_failed_ports, std::vector<int>{0});
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(mid)].failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(relay)].failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(relay)].upstream_failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(sink)].upstream_failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(src)].failed);
}

TEST(Containment, HealthySiblingsCompleteWhenOneBranchFails) {
  // Fan-out: one consumer dies immediately, the other must still receive the
  // full stream (the producer keeps emitting; the dead branch just degrades).
  std::atomic<int> healthy_count{0};
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.emit(0, pack_int(i));
      ctx.emit(1, pack_int(i));
    }
  });
  const int bad = g.add_node("bad", [](Context&) -> void {
    throw std::runtime_error("instant death");
  });
  const int good = g.add_node("good", [&](Context& ctx) {
    while (ctx.recv()) ++healthy_count;
  });
  g.connect(src, 0, bad, 0);
  g.connect(src, 1, good, 0);

  const RunResult result = g.run();
  EXPECT_EQ(healthy_count.load(), 50);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(bad)].failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(good)].failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(good)].upstream_failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(src)].failed);
}

TEST(Containment, KilledRankDetectedViaPumpDeadline) {
  // The fault plan kills the source mid-stream WITHOUT a dying breath: no
  // EOS, no failure marker, just silence. Only the pump deadline lets the
  // sink (and the graph) finish — and the silence is reported as a fault.
  std::atomic<int> sink_count{0};
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 500; ++i) ctx.emit(0, pack_int(i));
  });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (ctx.recv()) ++sink_count;
  });
  g.connect(src, 0, sink, 0, /*capacity=*/8);

  RunOptions options;
  options.fault.kill_rank = 0;
  options.fault.kill_at_op = 60;  // mid-stream, well before 500 sends
  options.pump_timeout = std::chrono::milliseconds{1000};

  const RunResult result = g.run(options);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(src)].failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(sink)].upstream_failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(sink)].timed_out);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(sink)].failed);
  // Messages sent before the kill were delivered.
  EXPECT_GT(sink_count.load(), 0);
  EXPECT_LT(sink_count.load(), 500);
}

TEST(Containment, DeadConsumerDoesNotWedgeTheProducer) {
  // The consumer is killed by the fault plan; with a bounded pump the
  // producer's emit() declares the edge dead once credits stop coming back
  // and the graph still completes.
  Graph g;
  const int src = g.add_node("src", [](Context& ctx) {
    for (int i = 0; i < 500; ++i) ctx.emit(0, pack_int(i));
  });
  const int sink = g.add_node("sink", [&](Context& ctx) {
    while (ctx.recv()) {
    }
  });
  g.connect(src, 0, sink, 0, /*capacity=*/4);

  RunOptions options;
  options.fault.kill_rank = 1;
  options.fault.kill_at_op = 60;
  options.pump_timeout = std::chrono::milliseconds{1000};

  const RunResult result = g.run(options);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(sink)].failed);
  EXPECT_FALSE(result.nodes[static_cast<std::size_t>(src)].failed);
  EXPECT_TRUE(result.nodes[static_cast<std::size_t>(src)].timed_out);
}

}  // namespace
}  // namespace mm::dag
