// Tests for the mpmini message-passing runtime: point-to-point semantics,
// envelope matching, ordering, deadlines, fault injection and subgroup
// communicators.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "mpmini/environment.hpp"
#include "mpmini/serde.hpp"

namespace mm::mpi {
namespace {

TEST(Environment, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::atomic<int> rank_mask{0};
  Environment::run(4, [&](Comm& comm) {
    ++count;
    rank_mask |= 1 << comm.rank();
    EXPECT_EQ(comm.size(), 4);
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(rank_mask.load(), 0b1111);
}

TEST(Environment, PropagatesRankException) {
  EXPECT_THROW(Environment::run(2,
                                [&](Comm& comm) {
                                  if (comm.rank() == 1)
                                    throw std::runtime_error("rank 1 died");
                                }),
               std::runtime_error);
}

TEST(PointToPoint, RoundTrip) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 5, 99);
      EXPECT_EQ(comm.recv_value<int>(1, 6), 100);
    } else {
      const int v = comm.recv_value<int>(0, 5);
      comm.send_value<int>(0, 6, v + 1);
    }
  });
}

TEST(PointToPoint, PerSourceFifoOrder) {
  Environment::run(2, [](Comm& comm) {
    constexpr int n = 500;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) comm.send_value<int>(1, 1, i);
    } else {
      for (int i = 0; i < n; ++i) EXPECT_EQ(comm.recv_value<int>(0, 1), i);
    }
  });
}

TEST(PointToPoint, TagSelectivity) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 10, 1);
      comm.send_value<int>(1, 20, 2);
    } else {
      // Receive tag 20 first even though tag 10 arrived first.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
}

TEST(PointToPoint, WildcardSourceReportsActualEnvelope) {
  Environment::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      int seen_mask = 0;
      for (int k = 0; k < 2; ++k) {
        RecvStatus status;
        const int v = comm.recv_value<int>(any_source, any_tag, &status);
        EXPECT_EQ(v, status.source * 10);
        EXPECT_EQ(status.tag, status.source);
        seen_mask |= 1 << status.source;
      }
      EXPECT_EQ(seen_mask, 0b110);
    } else {
      comm.send_value<int>(0, comm.rank(), comm.rank() * 10);
    }
  });
}

TEST(PointToPoint, VectorPayload) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> xs(1000);
      std::iota(xs.begin(), xs.end(), 0.0);
      comm.send_span(1, 3, xs.data(), xs.size());
    } else {
      const auto xs = comm.recv_elems<double>(0, 3);
      ASSERT_EQ(xs.size(), 1000u);
      EXPECT_DOUBLE_EQ(xs[999], 999.0);
    }
  });
}

TEST(Subgroup, ContiguousRangesAgreeLocallyAndNeverCrossMatch) {
  constexpr int kTag = 7;
  std::vector<std::uint64_t> ids(6);
  std::uint64_t world_id = 0;
  std::uint64_t fresh_id = 0;
  Environment::run(6, [&](Comm& comm) {
    // World ranks {0, 1, 2} form subgroup 0, {3, 4, 5} subgroup 1.
    const int first = comm.rank() < 3 ? 0 : 3;
    Comm sub = comm.subgroup(first / 3, first, 3);
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() - first);  // parent order kept
    ids[static_cast<std::size_t>(comm.rank())] = sub.id();
    EXPECT_NE(comm.subgroup(2, first, 3).id(), sub.id());
    if (comm.rank() == 0) {
      world_id = comm.id();
      fresh_id = comm.world().allocate_comm_id();
    }

    // Each leader first sends a decoy over the WORLD comm, then the real
    // value over its subgroup, both on the same tag; members receive from
    // subgroup rank 0, which is also the decoy's world source for group 0.
    if (sub.rank() == 0) {
      for (int r = 1; r < 3; ++r) {
        comm.send_value<int>(first + r, kTag, -1);
        sub.send_value<int>(r, kTag, 100 + comm.rank());
      }
    } else {
      EXPECT_EQ(sub.recv_value<int>(0, kTag), 100 + first);
      EXPECT_EQ(comm.recv_value<int>(first, kTag), -1);
    }

    // Members answer their leader on the same tag in both groups; a
    // wildcard receive sees only its own group's members.
    if (sub.rank() != 0) {
      sub.send_value<int>(0, kTag, comm.rank());
    } else {
      for (int i = 1; i < 3; ++i) {
        RecvStatus status;
        const int from = sub.recv_value<int>(any_source, kTag, &status);
        EXPECT_EQ(from, first + status.source);
      }
    }
  });
  for (int r = 0; r < 6; ++r)
    EXPECT_EQ(ids[static_cast<std::size_t>(r)], ids[r < 3 ? 0u : 3u]) << "rank " << r;
  EXPECT_NE(ids[0], ids[3]);
  for (const std::uint64_t id : {ids[0], ids[3]}) {
    EXPECT_NE(id, world_id);
    EXPECT_NE(id, fresh_id);
  }
}

TEST(Serde, RoundTripsMixedPayload) {
  Packer packer;
  packer.put<int>(7);
  packer.put<double>(2.5);
  packer.put_string("hello world");
  packer.put_vector(std::vector<float>{1.f, 2.f, 3.f});
  const auto bytes = packer.take();

  Unpacker unpacker(bytes);
  EXPECT_EQ(unpacker.get<int>(), 7);
  EXPECT_DOUBLE_EQ(unpacker.get<double>(), 2.5);
  EXPECT_EQ(unpacker.get_string(), "hello world");
  const auto v = unpacker.get_vector<float>();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_FLOAT_EQ(v[2], 3.f);
  EXPECT_TRUE(unpacker.exhausted());
}

TEST(SendRecv, SimultaneousExchangeDoesNotDeadlock) {
  Environment::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<std::uint8_t> mine = {static_cast<std::uint8_t>(comm.rank())};
    // Sends are buffered, so both peers sending first cannot deadlock.
    comm.send(peer, 3, mine);
    const auto got = comm.recv(peer, 3);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<std::uint8_t>(peer));
  });
}

TEST(SendRecv, RingRotation) {
  constexpr int n = 5;
  Environment::run(n, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<std::uint8_t> token = {static_cast<std::uint8_t>(comm.rank())};
    // Rotate the token all the way around the ring.
    for (int step = 0; step < comm.size(); ++step) {
      comm.send(next, 1, std::move(token));
      token = comm.recv(prev, 1);
    }
    EXPECT_EQ(token[0], static_cast<std::uint8_t>(comm.rank()));
  });
}

TEST(Mailbox, ManyToOneStress) {
  constexpr int producers = 7;
  constexpr int per_producer = 200;
  Environment::run(producers + 1, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> next(producers + 1, 0);
      for (int k = 0; k < producers * per_producer; ++k) {
        RecvStatus status;
        const int v = comm.recv_value<int>(any_source, 1, &status);
        // Per-source FIFO even under contention.
        EXPECT_EQ(v, next[static_cast<std::size_t>(status.source)]++);
      }
    } else {
      for (int i = 0; i < per_producer; ++i) comm.send_value<int>(0, 1, i);
    }
  });
}

// --- collective patterns over point to point --------------------------------
// The runtime has no collectives: a component that needs one (the correlation
// group's shard and round exchange) builds it from send and recv. These cases
// build the classic patterns the same way for 1, 2, odd, even and
// non-power-of-two world sizes, so source-specific and wildcard matching,
// typed payloads and per-pair delivery hold as the rank count grows.

class CollectivesSized : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesSized,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13));

TEST_P(CollectivesSized, BcastValueFromEveryRoot) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    // Every root sends on the same tag; only the source keeps roots apart.
    for (int root = 0; root < n; ++root) {
      int v = -1;
      if (comm.rank() == root) {
        v = 1000 + root;
        for (int d = 0; d < n; ++d)
          if (d != root) comm.send_value(d, 0, v);
      } else {
        v = comm.recv_value<int>(root, 0);
      }
      EXPECT_EQ(v, 1000 + root);
    }
  });
}

TEST_P(CollectivesSized, BcastVector) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    std::vector<double> out;
    if (comm.rank() == 0) {
      out.resize(257);
      std::iota(out.begin(), out.end(), 0.5);
      for (int d = 1; d < n; ++d) comm.send_span(d, 1, out.data(), out.size());
    } else {
      out = comm.recv_elems<double>(0, 1);
    }
    ASSERT_EQ(out.size(), 257u);
    EXPECT_DOUBLE_EQ(out[256], 256.5);
  });
}

TEST_P(CollectivesSized, GatherInRankOrder) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 2, comm.rank() * 2);
      return;
    }
    // Arrival order is arbitrary; receiving by source restores rank order.
    std::vector<int> out = {0};
    for (int r = 1; r < n; ++r) out.push_back(comm.recv_value<int>(r, 2));
    ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], r * 2);
  });
}

TEST_P(CollectivesSized, AllgatherEveryRankSeesAll) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    for (int d = 0; d < n; ++d)
      if (d != comm.rank()) comm.send_value(d, 3, 100 + comm.rank());
    // Wildcard receives, placed by the reported source.
    std::vector<int> out(static_cast<std::size_t>(n), -1);
    out[static_cast<std::size_t>(comm.rank())] = 100 + comm.rank();
    for (int k = 1; k < n; ++k) {
      RecvStatus status;
      const int v = comm.recv_value<int>(any_source, 3, &status);
      EXPECT_EQ(out[static_cast<std::size_t>(status.source)], -1);
      out[static_cast<std::size_t>(status.source)] = v;
    }
    for (int r = 0; r < n; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], 100 + r);
  });
}

TEST_P(CollectivesSized, AllgatherVariableLengthVectors) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
    for (int d = 0; d < n; ++d)
      if (d != comm.rank()) comm.send_span(d, 4, mine.data(), mine.size());
    std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
    out[static_cast<std::size_t>(comm.rank())] = mine;
    for (int k = 1; k < n; ++k) {
      RecvStatus status;
      auto got = comm.recv_elems<int>(any_source, 4, &status);
      EXPECT_EQ(status.byte_count, got.size() * sizeof(int));
      out[static_cast<std::size_t>(status.source)] = std::move(got);
    }
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(out[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
      EXPECT_EQ(out[static_cast<std::size_t>(r)].front(), r);
    }
  });
}

TEST_P(CollectivesSized, ScatterDeliversOwnPart) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    int part = -1;
    if (comm.rank() == 0) {
      for (int r = 1; r < n; ++r) comm.send_value(r, 5, r * r);
      part = 0;
    } else {
      part = comm.recv_value<int>(0, 5);
    }
    EXPECT_EQ(part, comm.rank() * comm.rank());
  });
}

TEST_P(CollectivesSized, AlltoallPersonalizedExchange) {
  const int n = GetParam();
  Environment::run(n, [&](Comm& comm) {
    // Rank r sends value 100*r + d to destination d.
    for (int d = 0; d < n; ++d)
      if (d != comm.rank()) comm.send_value(d, 6, 100 * comm.rank() + d);
    std::vector<int> got(static_cast<std::size_t>(n));
    got[static_cast<std::size_t>(comm.rank())] = 100 * comm.rank() + comm.rank();
    for (int s = 0; s < n; ++s)
      if (s != comm.rank()) got[static_cast<std::size_t>(s)] = comm.recv_value<int>(s, 6);
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(got[static_cast<std::size_t>(s)], 100 * s + comm.rank());
  });
}

// --- deadline variants ------------------------------------------------------

TEST(Deadline, RecvForTimesOutWithTypedError) {
  // Rank 1 stays alive (silent) until rank 0's deadline has passed.
  std::barrier sync(2);
  Environment::run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const auto result = comm.recv_for(std::chrono::milliseconds{30}, 1, 7);
      ASSERT_FALSE(result.has_value());
      EXPECT_EQ(result.error().code, Errc::timeout);
    }
    sync.arrive_and_wait();
  });
}

TEST(Deadline, RecvForReturnsPayloadOnArrival) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      RecvStatus status;
      const auto result =
          comm.recv_for(std::chrono::milliseconds{30000}, any_source, any_tag, &status);
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->size(), 1u);
      EXPECT_EQ(result->front(), 42);
      EXPECT_EQ(status.source, 1);
      EXPECT_EQ(status.tag, 9);
    } else {
      comm.send(0, 9, {42});
    }
  });
}

TEST(Deadline, TimedOutRecvDoesNotSwallowLaterMessages) {
  // Regression guard for ticket cancellation: a receive abandoned on timeout
  // must be withdrawn, or the message arriving later completes a ticket
  // nobody is waiting on and is lost to all future receives.
  std::barrier sync(2);
  Environment::run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      ASSERT_FALSE(comm.recv_for(std::chrono::milliseconds{30}, 1, 5).has_value());
      sync.arrive_and_wait();  // now let rank 1 send
      EXPECT_EQ(comm.recv_value<int>(1, 5), 1);
      EXPECT_EQ(comm.recv_value<int>(1, 5), 2);
    } else {
      sync.arrive_and_wait();
      comm.send_value<int>(0, 5, 1);
      comm.send_value<int>(0, 5, 2);
    }
  });
}

// --- fault injection --------------------------------------------------------

TEST(FaultPlan, DecisionsAreDeterministicPerEnvelope) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.1;

  int drops = 0;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    Message m;
    m.source = 0;
    m.tag = 2;
    m.comm_id = 1;
    m.sequence = seq;
    const auto a = plan.decide(m, 1);
    const auto b = plan.decide(m, 1);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.delay.count(), b.delay.count());
    if (a.drop) ++drops;
  }
  // The hash behaves like the configured Bernoulli rate.
  EXPECT_GT(drops, 200);
  EXPECT_LT(drops, 400);
}

TEST(FaultPlan, DropsAreAppliedAndRunToRunDeterministic) {
  constexpr int n = 200;
  const auto run_once = [] {
    FaultPlan plan;
    plan.seed = 99;
    plan.drop_prob = 0.5;
    int received = 0;
    std::barrier sync(2);
    Environment::run(
        2,
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < n; ++i) comm.send_value<int>(1, 1, i);
            sync.arrive_and_wait();
          } else {
            sync.arrive_and_wait();  // all surviving sends are already queued
            while (comm.recv_for(std::chrono::milliseconds{0}, 0, 1).has_value())
              ++received;
          }
        },
        plan);
    return received;
  };

  const int first = run_once();
  EXPECT_GT(first, 0);
  EXPECT_LT(first, n);
  EXPECT_EQ(run_once(), first);  // same seed, same envelopes, same fault set
}

TEST(FaultPlan, DuplicatesDeliverTwice) {
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_prob = 1.0;
  int received = 0;
  std::barrier sync(2);
  Environment::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 10; ++i) comm.send_value<int>(1, 1, i);
          sync.arrive_and_wait();
        } else {
          sync.arrive_and_wait();
          while (comm.recv_for(std::chrono::milliseconds{0}, 0, 1).has_value())
            ++received;
        }
      },
      plan);
  EXPECT_EQ(received, 20);
}

TEST(FaultPlan, KilledRankThrowsAndStaysDead) {
  FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_at_op = 3;  // two sends succeed, the third operation kills
  std::vector<int> got;
  EXPECT_THROW(
      Environment::run(
          2,
          [&](Comm& comm) {
            if (comm.rank() == 1) {
              comm.send_value<int>(0, 1, 10);
              comm.send_value<int>(0, 1, 11);
              comm.send_value<int>(0, 1, 12);  // never delivered: rank dies here
            } else {
              got.push_back(comm.recv_value<int>(1, 1));
              got.push_back(comm.recv_value<int>(1, 1));
            }
          },
          plan),
      RankKilled);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[1], 11);
}

TEST(FaultPlan, DeadRankCannotSendDyingBreath) {
  // Every operation at or past the kill step throws — including attempts to
  // catch the first throw and "say goodbye".
  FaultPlan plan;
  plan.kill_rank = 0;
  plan.kill_at_op = 1;
  EXPECT_THROW(Environment::run(
                   1,
                   [&](Comm& comm) {
                     try {
                       comm.send_value<int>(0, 1, 1);
                     } catch (const RankKilled&) {
                       comm.send_value<int>(0, 1, 2);  // throws again
                     }
                   },
                   plan),
               RankKilled);
}

TEST(FaultPlan, DelayOnlySlowsButLosesNothing) {
  FaultPlan plan;
  plan.seed = 11;
  plan.delay_prob = 0.5;
  plan.delay = std::chrono::microseconds{200};
  Environment::run(
      2,
      [](Comm& comm) {
        constexpr int n = 50;
        if (comm.rank() == 0) {
          for (int i = 0; i < n; ++i) comm.send_value<int>(1, 1, i);
        } else {
          for (int i = 0; i < n; ++i) EXPECT_EQ(comm.recv_value<int>(0, 1), i);
        }
      },
      plan);
}

}  // namespace
}  // namespace mm::mpi
