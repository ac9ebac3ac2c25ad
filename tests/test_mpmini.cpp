// Tests for the mpmini message-passing runtime: point-to-point semantics,
// envelope matching, ordering, probing, requests and subgroup communicators.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "mpmini/collectives.hpp"
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

TEST(Requests, IrecvCompletesOnDelivery) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.irecv(1, 7);
      comm.send_value<int>(1, 8, 0);  // tell peer to go
      auto msg = req.wait();
      ASSERT_EQ(msg.payload.size(), sizeof(int));
      int v;
      std::memcpy(&v, msg.payload.data(), sizeof(int));
      EXPECT_EQ(v, 123);
    } else {
      (void)comm.recv(0, 8);
      comm.send_value<int>(0, 7, 123);
    }
  });
}

TEST(Requests, IsendIsBornComplete) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.isend(1, 1, {1, 2, 3});
      EXPECT_TRUE(req.test());
      req.wait();
    } else {
      EXPECT_EQ(comm.recv(0, 1).size(), 3u);
    }
  });
}

TEST(Probe, ReportsWithoutConsuming) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1, 4, 2.5);
    } else {
      const auto status = comm.probe(0, 4);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 4);
      EXPECT_EQ(status.byte_count, sizeof(double));
      // Message still there.
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 4), 2.5);
    }
  });
}

TEST(Probe, IprobeNegativeThenPositive) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.iprobe(1, 9, nullptr));
      comm.send_value<int>(1, 2, 0);  // release peer
      (void)comm.recv(1, 9);
    } else {
      (void)comm.recv(0, 2);
      comm.send_value<int>(0, 9, 1);
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
    const auto got = comm.sendrecv(peer, 3, mine, peer, 3);
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
    for (int step = 0; step < comm.size(); ++step)
      token = comm.sendrecv(next, 1, std::move(token), prev, 1);
    EXPECT_EQ(token[0], static_cast<std::uint8_t>(comm.rank()));
  });
}

TEST(WaitAll, CollectsEveryMessage) {
  Environment::run(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Request> requests;
      for (int src = 1; src < 4; ++src) requests.push_back(comm.irecv(src, 9));
      comm.barrier();
      auto messages = wait_all(requests);
      ASSERT_EQ(messages.size(), 3u);
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(messages[i].source, static_cast<int>(i) + 1);
    } else {
      comm.barrier();
      comm.send_value<int>(0, 9, comm.rank());
    }
  });
}

TEST(WaitAny, ReturnsACompletedRequest) {
  Environment::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Request> requests;
      requests.push_back(comm.irecv(1, 5));
      requests.push_back(comm.irecv(2, 5));
      // Only rank 2 sends at first.
      comm.send_value<int>(2, 6, 0);
      Message msg;
      const auto idx = wait_any(requests, &msg);
      EXPECT_EQ(idx, 1u);
      EXPECT_EQ(msg.source, 2);
      // Now release rank 1 and drain the other request.
      comm.send_value<int>(1, 6, 0);
      (void)requests[0].wait();
    } else if (comm.rank() == 1) {
      (void)comm.recv(0, 6);
      comm.send_value<int>(0, 5, 1);
    } else {
      (void)comm.recv(0, 6);
      comm.send_value<int>(0, 5, 2);
    }
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

// --- deadline variants ------------------------------------------------------

TEST(Deadline, RecvForTimesOutWithTypedError) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const auto result = comm.recv_for(std::chrono::milliseconds{30}, 1, 7);
      ASSERT_FALSE(result.has_value());
      EXPECT_EQ(result.error().code, Errc::timeout);
    }
    comm.barrier();
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
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      ASSERT_FALSE(comm.recv_for(std::chrono::milliseconds{30}, 1, 5).has_value());
      comm.barrier();  // now let rank 1 send
      EXPECT_EQ(comm.recv_value<int>(1, 5), 1);
      EXPECT_EQ(comm.recv_value<int>(1, 5), 2);
    } else {
      comm.barrier();
      comm.send_value<int>(0, 5, 1);
      comm.send_value<int>(0, 5, 2);
    }
  });
}

TEST(Deadline, RequestWaitForTimesOutThenCompletes) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Request req = comm.irecv(1, 3);
      const auto early = req.wait_for(std::chrono::milliseconds{30});
      ASSERT_FALSE(early.has_value());
      EXPECT_EQ(early.error().code, Errc::timeout);
      comm.barrier();
      const auto late = req.wait_for(std::chrono::milliseconds{30000});
      ASSERT_TRUE(late.has_value());
      ASSERT_EQ(late->payload.size(), 1u);
      EXPECT_EQ(late->payload.front(), 7);
    } else {
      comm.barrier();
      comm.send(0, 3, {7});
    }
  });
}

TEST(Deadline, ProbeForTimesOutAndThenFinds) {
  Environment::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const auto missing = comm.probe_for(std::chrono::milliseconds{30}, 1, 4);
      ASSERT_FALSE(missing.has_value());
      EXPECT_EQ(missing.error().code, Errc::timeout);
      comm.barrier();
      const auto found = comm.probe_for(std::chrono::milliseconds{30000}, 1, 4);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(found->tag, 4);
      EXPECT_EQ(found->byte_count, 3u);
      EXPECT_EQ(comm.recv(1, 4).size(), 3u);
    } else {
      comm.barrier();
      comm.send(0, 4, {1, 2, 3});
    }
  });
}

// --- probe/recv matching contract -------------------------------------------

TEST(ProbeRace, ProbedMessageIsReservedForTheProbingThread) {
  // Regression for the probe -> recv steal: a message reported by a blocking
  // probe must go to the probing thread even if another thread posts a
  // wildcard receive in between.
  Mailbox box;
  Message first;
  first.source = 0;
  first.tag = 7;
  first.comm_id = 1;
  first.sequence = 0;
  first.payload = {1};
  box.deliver(first);

  const RecvStatus st = box.probe(1, any_source, any_tag);
  EXPECT_EQ(st.tag, 7);

  // A wildcard receive from ANOTHER thread must not see the reserved message.
  std::shared_ptr<RecvTicket> thief;
  std::thread other([&] { thief = box.post_recv(1, any_source, any_tag); });
  other.join();
  EXPECT_FALSE(box.test(thief));

  // The probing thread's own receive consumes exactly the probed message.
  auto mine = box.post_recv(1, st.source, st.tag);
  ASSERT_TRUE(box.test(mine));
  EXPECT_EQ(box.wait(mine).payload.front(), 1);

  // The thief's pending receive is served by the NEXT delivery.
  Message second = first;
  second.sequence = 1;
  second.payload = {2};
  box.deliver(second);
  ASSERT_TRUE(box.test(thief));
  EXPECT_EQ(box.wait(thief).payload.front(), 2);
}

TEST(ProbeRace, StressProbeThenRecvAlwaysCompletesImmediately) {
  // Under the reservation contract, a receive posted right after a blocking
  // probe is ALWAYS satisfied on the spot — a concurrent wildcard consumer
  // can no longer snatch the probed message.
  Mailbox box;
  constexpr int prober_share = 150;
  constexpr int thief_share = 150;

  std::thread producer([&] {
    for (int i = 0; i < prober_share + thief_share; ++i) {
      Message m;
      m.source = 0;
      m.tag = 3;
      m.comm_id = 1;
      m.sequence = static_cast<std::uint64_t>(i);
      m.payload = {static_cast<std::uint8_t>(i & 0xff)};
      box.deliver(m);
    }
  });
  std::thread thief([&] {
    for (int i = 0; i < thief_share; ++i) (void)box.wait(box.post_recv(1, 0, 3));
  });

  int immediate = 0;
  for (int i = 0; i < prober_share; ++i) {
    const RecvStatus st = box.probe(1, any_source, any_tag);
    auto ticket = box.post_recv(1, st.source, st.tag);
    if (box.test(ticket)) ++immediate;
    (void)box.wait(ticket);
  }
  producer.join();
  thief.join();
  EXPECT_EQ(immediate, prober_share);
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

TEST(FaultPlan, ReservedTagsAreNeverFaulted) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 1.0;  // drop everything... except collective traffic
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    Message m;
    m.source = 0;
    m.tag = reserved_tag_base + static_cast<int>(seq);
    m.comm_id = 1;
    m.sequence = seq;
    const auto d = plan.decide(m, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay.count(), 0);
  }
}

TEST(FaultPlan, DropsAreAppliedAndRunToRunDeterministic) {
  constexpr int n = 200;
  const auto run_once = [] {
    FaultPlan plan;
    plan.seed = 99;
    plan.drop_prob = 0.5;
    int received = 0;
    Environment::run(
        2,
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < n; ++i) comm.send_value<int>(1, 1, i);
            comm.barrier();
          } else {
            comm.barrier();  // all surviving sends are already queued
            while (comm.iprobe(0, 1)) {
              (void)comm.recv(0, 1);
              ++received;
            }
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
  Environment::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 10; ++i) comm.send_value<int>(1, 1, i);
          comm.barrier();
        } else {
          comm.barrier();
          while (comm.iprobe(0, 1)) {
            (void)comm.recv(0, 1);
            ++received;
          }
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
