// Multi-process socket transport: MPI semantics across real process
// boundaries, bit-identical pipeline results vs the in-process run, trace
// stitching over the wire, and the env-knob validation that guards the
// transport selection.
//
// The fork harness binds the rendezvous listener BEFORE forking and hands the
// fd to the rank-0 child (Rendezvous::listen_fd), so there is no port race;
// children run their rank under the socket transport and _exit so gtest's
// machinery never runs twice.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"
#include "mpmini/environment.hpp"
#include "mpmini/socket_transport.hpp"
#include "mpmini/wait.hpp"
#include "obs/trace.hpp"
#include "wire/format.hpp"
#include "wire/socket.hpp"

namespace mm::mpi {
namespace {

// In-child assertion: gtest failures cannot propagate across _exit, so a
// failed check aborts the child with a nonzero status the parent's EXPECT
// sees.
#define CHILD_CHECK(cond)                                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "CHILD_CHECK failed at %s:%d: %s\n", __FILE__,   \
                   __LINE__, #cond);                                        \
      _exit(2);                                                             \
    }                                                                       \
  } while (0)

// Fork one process per rank; each child runs `child(rz)` — typically
// Environment::run_rendezvous or run_pipeline with the rendezvous set — and
// the string returned by rank `report_rank` is streamed up a pipe into
// `report`. Returns false when any child exited abnormally.
bool fork_ranks(int world_size, int report_rank,
                const std::function<std::string(const Rendezvous&)>& child,
                std::string* report = nullptr) {
  std::uint16_t port = 0;
  auto listener = wire::tcp_listen("127.0.0.1", 0, &port);
  if (!listener.has_value()) {
    ADD_FAILURE() << "rendezvous bind failed: " << listener.error().to_string();
    return false;
  }

  int pipe_fds[2] = {-1, -1};
  if (pipe(pipe_fds) != 0) {
    ADD_FAILURE() << "pipe failed";
    return false;
  }

  std::vector<pid_t> children;
  for (int rank = 0; rank < world_size; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) {
      ADD_FAILURE() << "fork failed";
      for (const pid_t c : children) kill(c, SIGKILL);
      return false;
    }
    if (pid == 0) {
      ::close(pipe_fds[0]);
      Rendezvous rz;
      rz.rank = rank;
      rz.port = port;
      if (rank == 0) rz.listen_fd = listener.value().release();
      int code = 0;
      try {
        const std::string out = child(rz);
        if (rank == report_rank) {
          std::size_t at = 0;
          while (at < out.size()) {
            const ssize_t n =
                write(pipe_fds[1], out.data() + at, out.size() - at);
            if (n <= 0) break;
            at += static_cast<std::size_t>(n);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d died: %s\n", rank, e.what());
        code = 1;
      } catch (...) {
        code = 1;
      }
      ::close(pipe_fds[1]);
      _exit(code);
    }
    children.push_back(pid);
  }

  listener.value().close();
  ::close(pipe_fds[1]);
  std::string collected;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(pipe_fds[0], buf, sizeof(buf))) > 0)
    collected.append(buf, static_cast<std::size_t>(n));
  ::close(pipe_fds[0]);
  if (report != nullptr) *report = std::move(collected);

  bool all_ok = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    waitpid(children[i], &status, 0);
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(ok) << "rank " << i << " exited abnormally (status " << status
                    << ")";
    all_ok = all_ok && ok;
  }
  return all_ok;
}

// Convenience wrapper for tests whose children just run a rank main.
bool fork_world(int world_size, const std::function<void(Comm&)>& rank_main) {
  return fork_ranks(world_size, 0, [&](const Rendezvous& rz) {
    Environment::run_rendezvous(rz, world_size, rank_main);
    return std::string{};
  });
}

// --- point-to-point semantics across processes ---------------------------

TEST(SocketTransport, PointToPointSemanticsSurviveTheWire) {
  const bool ok = fork_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Tagged sends out of order; FIFO within a (source, tag) stream.
      comm.send(1, 7, {1});
      comm.send(1, 9, {2, 2});
      comm.send(1, 7, {3});
      comm.send_value<std::uint64_t>(1, 11, 0xDEADBEEFCAFEF00Dull);
      // Reply path.
      const auto echo = comm.recv(1, 21);
      CHILD_CHECK(echo.size() == 2 && echo[0] == 2 && echo[1] == 2);
    } else {
      // Tag selectivity: drain tag 9 first even though 7 arrived first.
      auto b = comm.recv(0, 9);
      CHILD_CHECK(b.size() == 2);
      // Probe reports the tag-7 stream head without consuming it.
      const RecvStatus head = comm.probe(0, 7);
      CHILD_CHECK(head.byte_count == 1);
      const auto first = comm.recv(head.source, head.tag);
      CHILD_CHECK(first.size() == 1 && first[0] == 1);
      const auto second = comm.recv(0, 7);
      CHILD_CHECK(second.size() == 1 && second[0] == 3);
      const auto v = comm.recv_value<std::uint64_t>(0, 11);
      CHILD_CHECK(v == 0xDEADBEEFCAFEF00Dull);
      // Deadline variant: nothing else is coming on tag 99.
      const auto none = comm.recv_for(std::chrono::milliseconds{30}, 0, 99);
      CHILD_CHECK(!none.has_value());
      CHILD_CHECK(none.error().code == Errc::timeout);
      comm.send(0, 21, std::move(b));
    }
  });
  EXPECT_TRUE(ok);
}

TEST(SocketTransport, CollectivesAgreeAcrossProcesses) {
  const bool ok = fork_world(3, [](Comm& comm) {
    comm.barrier();

    // bcast: root 1's bytes arrive everywhere.
    std::vector<std::uint8_t> buf;
    if (comm.rank() == 1) buf = {42, 43, 44};
    comm.bcast_bytes(buf, 1);
    CHILD_CHECK(buf.size() == 3 && buf[0] == 42 && buf[2] == 44);

    // gather at root 0 in rank order.
    const auto mine = std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(10 + comm.rank())};
    const auto rows = comm.gather_bytes(mine, 0);
    if (comm.rank() == 0) {
      CHILD_CHECK(rows.size() == 3);
      for (int r = 0; r < 3; ++r)
        CHILD_CHECK(rows[static_cast<std::size_t>(r)][0] == 10 + r);
    } else {
      CHILD_CHECK(rows.empty());
    }

    // allgather: everyone sees everyone.
    const auto all = comm.allgather_bytes(mine);
    CHILD_CHECK(all.size() == 3);
    for (int r = 0; r < 3; ++r)
      CHILD_CHECK(all[static_cast<std::size_t>(r)][0] == 10 + r);

    // split: {0,2} vs {1}; comm ids agree across processes because
    // collectives allocate at rank 0 and broadcast.
    Comm half = comm.split(comm.rank() % 2, comm.rank());
    CHILD_CHECK(half.size() == (comm.rank() % 2 == 0 ? 2 : 1));
    if (comm.rank() % 2 == 0) {
      std::vector<std::uint8_t> probe{static_cast<std::uint8_t>(comm.rank())};
      half.bcast_bytes(probe, 0);
      CHILD_CHECK(probe[0] == 0);  // world rank 0 is color-0's root
    }
    comm.barrier();
  });
  EXPECT_TRUE(ok);
}

// --- trace-context stitching across processes ----------------------------

TEST(SocketTransport, EnvelopeTraceHeaderSurvivesTheWire) {
  constexpr std::uint64_t kRootTrace = 0x5157495245ull;  // arbitrary nonzero
  constexpr int kSends = 4;
  const bool ok = fork_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      obs::TraceSink sink(256);
      obs::TraceRing& ring = sink.ring(0, "rank0");
      obs::TraceRingScope ring_scope(&ring);
      obs::TraceContextScope context(obs::make_trace_context(kRootTrace));
      for (int i = 0; i < kSends; ++i)
        comm.send(1, 5, {static_cast<std::uint8_t>(i)});
      // One flow start per logical send on the sender's side.
      CHILD_CHECK(sink.total_flow_starts() ==
                  static_cast<std::uint64_t>(kSends));
    } else {
      obs::TraceSink sink(256);
      obs::TraceRing& ring = sink.ring(1, "rank1");
      obs::TraceRingScope ring_scope(&ring);
      std::uint32_t last_flow = 0;
      for (int i = 0; i < kSends; ++i) {
        RecvStatus status;
        const auto payload = comm.recv(0, 5, &status);
        CHILD_CHECK(payload.size() == 1 &&
                    payload[0] == static_cast<std::uint8_t>(i));
        // The envelope header crossed the process boundary intact: the
        // sender's trace id, and a fresh flow id per send.
        CHILD_CHECK(status.trace_id == kRootTrace);
        CHILD_CHECK(status.flow != 0);
        CHILD_CHECK(status.flow != last_flow);
        last_flow = status.flow;
      }
      // Exactly one flow finish per logical send on the receiver's side.
      CHILD_CHECK(sink.total_flow_finishes() ==
                  static_cast<std::uint64_t>(kSends));
    }
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace mm::mpi

// --- multi-process pipeline vs in-process run ------------------------------

namespace mm::engine {
namespace {

core::StrategyParams demo_params() {
  core::StrategyParams p = core::ParamGrid::base();
  p.divergence = 0.0005;
  return p;
}

// Canonical, bit-exact textual image of the parts of a PipelineResult the
// master rank owns. Doubles print as hex floats: equality means the BITS
// match, not just a rounding neighborhood.
std::string summarize(const PipelineResult& r) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "orders=%llu trades=%llu pnl=%a\n",
                static_cast<unsigned long long>(r.master.orders),
                static_cast<unsigned long long>(r.master.trades),
                r.master.total_pnl);
  out += line;
  for (const auto& s : r.master.strategy_summaries) {
    std::snprintf(line, sizeof(line), "strategy=%d trades=%llu pnl=%a\n",
                  s.strategy_id, static_cast<unsigned long long>(s.trades),
                  s.total_pnl);
    out += line;
  }
  std::snprintf(line, sizeof(line), "degraded=%d\n", r.degraded ? 1 : 0);
  out += line;
  return out;
}

TEST(SocketTransportPipeline, MultiProcessRunIsBitIdenticalToInProcess) {
  constexpr std::size_t kSymbols = 5;
  const md::Universe universe = md::make_universe(kSymbols);
  md::GeneratorConfig generator;
  generator.quote_rate = 0.15;

  PipelineConfig config;
  config.symbols = kSymbols;
  config.strategies = {demo_params()};
  // collector, cleaner, snapshot, correlation, strategy-0, master
  constexpr int kRanks = 6;
  constexpr int kMasterRank = kRanks - 1;

  // Reference: the classic thread-per-rank run.
  const md::SyntheticDay day(universe, generator, 0);
  const PipelineResult reference =
      run_pipeline(config, universe, day.quotes());
  const std::string expect = summarize(reference);
  ASSERT_GT(reference.master.orders, 0u);

  // Same graph, one process per rank. Every child regenerates the identical
  // day (deterministic generator) and runs its slice; the master-rank child
  // reports the canonical summary up the pipe.
  std::string got;
  const bool ok = mpi::fork_ranks(
      kRanks, kMasterRank,
      [&](const mpi::Rendezvous& rz) {
        PipelineConfig local = config;
        local.rendezvous = &rz;
        const md::SyntheticDay local_day(universe, generator, 0);
        const PipelineResult result =
            run_pipeline(local, universe, local_day.quotes());
        return summarize(result);
      },
      &got);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace mm::engine

// --- envelope header decode -------------------------------------------------

namespace mm::mpi {
namespace {

std::vector<std::uint8_t> envelope_header(std::uint64_t payload_len) {
  std::vector<std::uint8_t> h(envelope_header_bytes);
  wire::store_u32(h.data(), 3);                 // source
  wire::store_u32(h.data() + 4, 7);             // tag
  wire::store_u64(h.data() + 8, 11);            // comm id
  wire::store_u64(h.data() + 16, 13);           // sequence
  wire::store_u64(h.data() + 24, 17);           // trace id
  wire::store_u32(h.data() + 32, 19);           // flow
  wire::store_u64(h.data() + 36, payload_len);
  return h;
}

TEST(SocketEnvelope, HeaderDecodesEveryField) {
  const auto header = envelope_header(5);
  const auto msg = decode_envelope_header(header.data());
  ASSERT_TRUE(msg.has_value()) << msg.error().to_string();
  EXPECT_EQ(msg->source, 3);
  EXPECT_EQ(msg->tag, 7);
  EXPECT_EQ(msg->comm_id, 11u);
  EXPECT_EQ(msg->sequence, 13u);
  EXPECT_EQ(msg->trace_id, 17u);
  EXPECT_EQ(msg->flow, 19u);
  EXPECT_EQ(msg->payload.size(), 5u);
}

TEST(SocketEnvelope, OversizedPayloadLengthIsRejectedWithoutAllocating) {
  // A corrupt length used to reach vector::resize inside the reader thread,
  // where length_error/bad_alloc terminated the whole process.
  const auto huge = envelope_header(UINT64_MAX);
  const auto rejected = decode_envelope_header(huge.data());
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, Errc::out_of_range);

  const auto over = envelope_header(max_envelope_payload + 1);
  EXPECT_FALSE(decode_envelope_header(over.data()).has_value());
  const auto at_limit = envelope_header(max_envelope_payload);
  const auto accepted = decode_envelope_header(at_limit.data());
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->payload.size(), max_envelope_payload);
}

// --- env-knob validation ----------------------------------------------------

TEST(TransportEnv, DefaultsWhenUnset) {
  const TransportEnv env =
      parse_transport_env(nullptr, nullptr, nullptr, nullptr, 8);
  EXPECT_EQ(env.transport, TransportMode::ring);
  EXPECT_EQ(env.spin.iterations, 512u);
  EXPECT_EQ(env.ring_capacity, 256u);
  EXPECT_FALSE(env.pin);
  EXPECT_TRUE(env.warnings.empty());
}

TEST(TransportEnv, ValidValuesParse) {
  const TransportEnv env = parse_transport_env("socket", "1024", "64", "1", 8);
  EXPECT_EQ(env.transport, TransportMode::socket);
  EXPECT_EQ(env.spin.iterations, 1024u);
  EXPECT_EQ(env.ring_capacity, 64u);
  EXPECT_TRUE(env.pin);
  EXPECT_TRUE(env.warnings.empty());
}

TEST(TransportEnv, GarbageTransportWarnsAndFallsBackToRing) {
  const TransportEnv env =
      parse_transport_env("shared-memory", nullptr, nullptr, nullptr, 8);
  EXPECT_EQ(env.transport, TransportMode::ring);
  ASSERT_EQ(env.warnings.size(), 1u);
  EXPECT_NE(env.warnings[0].find("MM_MPMINI_TRANSPORT"), std::string::npos);
}

TEST(TransportEnv, GarbageSpinWarnsAndKeepsDefault) {
  for (const char* bad : {"fast", "-1", "512k", "4294967296000"}) {
    const TransportEnv env =
        parse_transport_env(nullptr, bad, nullptr, nullptr, 8);
    EXPECT_EQ(env.spin.iterations, 512u) << bad;
    ASSERT_EQ(env.warnings.size(), 1u) << bad;
    EXPECT_NE(env.warnings[0].find("MM_MPMINI_SPIN"), std::string::npos) << bad;
  }
  // Zero is a legal value (park immediately), not garbage.
  const TransportEnv zero =
      parse_transport_env(nullptr, "0", nullptr, nullptr, 8);
  EXPECT_EQ(zero.spin.iterations, 0u);
  EXPECT_TRUE(zero.warnings.empty());
}

TEST(TransportEnv, RingCapGarbageAndClamping) {
  const TransportEnv garbage =
      parse_transport_env(nullptr, nullptr, "lots", nullptr, 8);
  EXPECT_EQ(garbage.ring_capacity, 256u);
  ASSERT_EQ(garbage.warnings.size(), 1u);

  const TransportEnv low =
      parse_transport_env(nullptr, nullptr, "1", nullptr, 8);
  EXPECT_EQ(low.ring_capacity, 2u);
  EXPECT_EQ(low.warnings.size(), 1u);

  const TransportEnv high =
      parse_transport_env(nullptr, nullptr, "99999999999", nullptr, 8);
  EXPECT_EQ(high.ring_capacity, std::uint64_t{1} << 20);
  EXPECT_EQ(high.warnings.size(), 1u);

  const TransportEnv fine =
      parse_transport_env(nullptr, nullptr, "1024", nullptr, 8);
  EXPECT_EQ(fine.ring_capacity, 1024u);
  EXPECT_TRUE(fine.warnings.empty());
}

TEST(TransportEnv, BadPinWarnsAndStaysOff) {
  const TransportEnv env =
      parse_transport_env(nullptr, nullptr, nullptr, "yes", 8);
  EXPECT_FALSE(env.pin);
  ASSERT_EQ(env.warnings.size(), 1u);
  EXPECT_NE(env.warnings[0].find("MM_MPMINI_PIN"), std::string::npos);
}

TEST(TransportEnv, SingleCoreHostGetsShortYieldOnlySpin) {
  const TransportEnv env =
      parse_transport_env(nullptr, nullptr, nullptr, nullptr, 1);
  EXPECT_EQ(env.spin.iterations, 16u);
  EXPECT_EQ(env.spin.pause_share, 0u);
}

TEST(TransportEnv, MultipleBadKnobsAccumulateWarnings) {
  const TransportEnv env = parse_transport_env("tcp", "soon", "zero", "y", 8);
  EXPECT_EQ(env.warnings.size(), 4u);
  EXPECT_EQ(env.transport, TransportMode::ring);
  EXPECT_EQ(env.spin.iterations, 512u);
  EXPECT_EQ(env.ring_capacity, 256u);
  EXPECT_FALSE(env.pin);
}

TEST(RendezvousEnv, ParsesAndRejects) {
  setenv("MM_MPMINI_RANK", "2", 1);
  setenv("MM_MPMINI_RENDEZVOUS", "10.0.0.5:9400", 1);
  auto rz = rendezvous_from_env();
  ASSERT_TRUE(rz.has_value()) << rz.error().to_string();
  EXPECT_EQ(rz.value().rank, 2);
  EXPECT_EQ(rz.value().host, "10.0.0.5");
  EXPECT_EQ(rz.value().port, 9400);

  setenv("MM_MPMINI_RENDEZVOUS", "no-port-here", 1);
  EXPECT_FALSE(rendezvous_from_env().has_value());
  setenv("MM_MPMINI_RENDEZVOUS", "host:0", 1);
  EXPECT_FALSE(rendezvous_from_env().has_value());
  setenv("MM_MPMINI_RENDEZVOUS", "host:9400", 1);
  setenv("MM_MPMINI_RANK", "minus-one", 1);
  EXPECT_FALSE(rendezvous_from_env().has_value());
  unsetenv("MM_MPMINI_RANK");
  EXPECT_FALSE(rendezvous_from_env().has_value());
  unsetenv("MM_MPMINI_RENDEZVOUS");
}

}  // namespace
}  // namespace mm::mpi
