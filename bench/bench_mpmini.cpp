// Microbenchmarks for the mpmini message-passing substrate.
//
// Two families:
//
//   BM_Transport*     — the intra-process transport hot path over persistent
//                       worlds: per-message cost, blocking round-trip
//                       percentiles, saturation throughput and allocation
//                       counts, for the lock-free ring path, the locked
//                       fallback, and a faithful replica of the pre-ring
//                       heap-and-lock mailbox (the "before" side of the
//                       before/after comparison). `bench_json` emits exactly
//                       this family into BENCH_mpmini.json.
//   everything else   — macro benchmarks over Environment::run (pingpong,
//                       streaming, world spawn), which time thread spawn and
//                       join along with the traffic.
//
// Interpreting the numbers on a single-core host (the CI container): blocking
// round trips are floored by two scheduler handoffs (see
// BM_TransportNullHandoff, ~1.2 us on the reference container), which no
// transport can remove; the transport-attributable overhead is the round trip
// minus that floor, plus the allocs_per_msg counter, where the ring path's
// advantage (zero allocations, no mutex, no futex wake per message) shows
// directly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mpmini/environment.hpp"

// Process-wide allocation counter: the transport benchmarks report
// allocs_per_msg from deltas around the hot loop (the zero-allocation claim
// for the ring path is also enforced by tests/test_transport.cpp).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mm::mpi;
using clk = std::chrono::steady_clock;

// --- legacy baseline ---------------------------------------------------------
// Faithful replica of the pre-ring mailbox transport: one mutex around a
// std::deque of messages and a std::list of shared_ptr receive tickets, a
// condition-variable notify on every delivery, and a heap-allocated ticket
// per receive. Kept here, not in the library, so the before/after comparison
// in BENCH_mpmini.json is measured rather than remembered.
namespace legacy {

struct Ticket {
  std::uint64_t comm_id = 0;
  int source = any_source;
  int tag = any_tag;
  bool done = false;
  Message message;
};

class Mailbox {
 public:
  void deliver(Message msg) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!(*it)->done && matches(**it, msg)) {
        (*it)->message = std::move(msg);
        (*it)->done = true;
        pending_.erase(it);
        lock.unlock();
        cv_.notify_all();
        return;
      }
    }
    queue_.push_back(std::move(msg));
    lock.unlock();
    cv_.notify_all();
  }

  std::shared_ptr<Ticket> post_recv(std::uint64_t comm_id, int source, int tag) {
    auto ticket = std::make_shared<Ticket>();
    ticket->comm_id = comm_id;
    ticket->source = source;
    ticket->tag = tag;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*ticket, *it)) {
        ticket->message = std::move(*it);
        ticket->done = true;
        queue_.erase(it);
        return ticket;
      }
    }
    pending_.push_back(ticket);
    return ticket;
  }

  Message wait(const std::shared_ptr<Ticket>& ticket) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return ticket->done; });
    return std::move(ticket->message);
  }

  Message recv(std::uint64_t comm_id, int source, int tag) {
    return wait(post_recv(comm_id, source, tag));
  }

 private:
  static bool matches(const Ticket& t, const Message& m) {
    return t.comm_id == m.comm_id &&
           (t.source == any_source || t.source == m.source) &&
           (t.tag == any_tag || t.tag == m.tag);
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::list<std::shared_ptr<Ticket>> pending_;
};

Message make_message(int source, int tag, std::vector<std::uint8_t> payload) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.comm_id = 1;
  m.payload = std::move(payload);
  return m;
}

}  // namespace legacy

// Percentile over a sample vector (ns); sorts a copy.
void report_percentiles(benchmark::State& state, std::vector<double>& samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<std::size_t>(p / 100.0 *
                                              static_cast<double>(samples.size() - 1));
    return samples[idx];
  };
  state.counters["p50_ns"] = pct(50);
  state.counters["p95_ns"] = pct(95);
  state.counters["p99_ns"] = pct(99);
}

// --- transport: single-thread self-loop (pure per-message cost) --------------
// One rank sends to itself and receives back, recycling the payload buffer:
// no scheduler involvement, so this is the per-message transport overhead in
// isolation (envelope handling, matching, synchronization, allocation).

void BM_TransportSelfLoop(benchmark::State& state, TransportMode mode) {
  World world(1, mode);
  Comm comm(&world, world.allocate_comm_id(), 0, {0});
  std::vector<std::uint8_t> payload(8, 0x5a);
  for (int i = 0; i < 512; ++i) {  // warm lanes, pool, buffer capacity
    comm.send(0, 1, std::move(payload));
    payload = comm.recv(0, 1);
  }
  const std::uint64_t a0 = g_alloc_count.load();
  for (auto _ : state) {
    comm.send(0, 1, std::move(payload));
    payload = comm.recv(0, 1);
  }
  const std::uint64_t a1 = g_alloc_count.load();
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_msg"] =
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations());
}

void BM_TransportSelfLoopLegacy(benchmark::State& state) {
  legacy::Mailbox box;
  std::vector<std::uint8_t> payload(8, 0x5a);
  for (int i = 0; i < 512; ++i) {
    box.deliver(legacy::make_message(0, 1, std::move(payload)));
    payload = box.recv(1, 0, 1).payload;
  }
  const std::uint64_t a0 = g_alloc_count.load();
  for (auto _ : state) {
    box.deliver(legacy::make_message(0, 1, std::move(payload)));
    payload = box.recv(1, 0, 1).payload;
  }
  const std::uint64_t a1 = g_alloc_count.load();
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_msg"] =
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations());
}

BENCHMARK_CAPTURE(BM_TransportSelfLoop, ring, TransportMode::ring)
    ->Iterations(100000);
BENCHMARK_CAPTURE(BM_TransportSelfLoop, locked, TransportMode::locked)
    ->Iterations(100000);
BENCHMARK(BM_TransportSelfLoopLegacy)->Iterations(100000);

// --- transport: blocking pingpong over a persistent world --------------------
// Real two-thread round trips with both sides blocking, the regime a DAG
// worker waiting on its upstream lives in. Reports p50/p95/p99 round-trip
// latency and allocations per round trip. Compare against the null-handoff
// floor below: everything above the floor is transport overhead.

constexpr int kPingPongIters = 20000;

void run_pingpong(benchmark::State& state, const std::function<void()>& once) {
  std::vector<double> samples;
  samples.reserve(kPingPongIters);
  const std::uint64_t a0 = g_alloc_count.load();
  for (auto _ : state) {
    const auto t0 = clk::now();
    once();
    samples.push_back(
        std::chrono::duration<double, std::nano>(clk::now() - t0).count());
  }
  const std::uint64_t a1 = g_alloc_count.load();
  state.SetItemsProcessed(state.iterations());
  // The samples vector was pre-sized; the delta is transport traffic only.
  state.counters["allocs_per_rt"] =
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations());
  report_percentiles(state, samples);
}

void BM_TransportPingPong(benchmark::State& state, TransportMode mode) {
  World world(2, mode);
  const std::uint64_t comm_id = world.allocate_comm_id();
  std::thread echo([&] {
    Comm comm(&world, comm_id, 1, {0, 1});
    for (;;) {
      RecvStatus st;
      auto buf = comm.recv(0, any_tag, &st);
      if (st.tag == 99) break;
      comm.send(0, 2, std::move(buf));
    }
  });
  Comm comm(&world, comm_id, 0, {0, 1});
  std::vector<std::uint8_t> payload(8, 0x5a);
  for (int i = 0; i < 512; ++i) {
    comm.send(1, 1, std::move(payload));
    payload = comm.recv(1, 2);
  }
  run_pingpong(state, [&] {
    comm.send(1, 1, std::move(payload));
    payload = comm.recv(1, 2);
  });
  comm.send(1, 99, {});
  echo.join();
}

void BM_TransportPingPongLegacy(benchmark::State& state) {
  legacy::Mailbox box0;
  legacy::Mailbox box1;
  std::thread echo([&] {
    for (;;) {
      Message m = box1.recv(1, 0, any_tag);
      if (m.tag == 99) break;
      box0.deliver(legacy::make_message(1, 2, std::move(m.payload)));
    }
  });
  std::vector<std::uint8_t> payload(8, 0x5a);
  for (int i = 0; i < 512; ++i) {
    box1.deliver(legacy::make_message(0, 1, std::move(payload)));
    payload = box0.recv(1, 1, 2).payload;
  }
  run_pingpong(state, [&] {
    box1.deliver(legacy::make_message(0, 1, std::move(payload)));
    payload = box0.recv(1, 1, 2).payload;
  });
  box1.deliver(legacy::make_message(0, 99, {}));
  echo.join();
}

BENCHMARK_CAPTURE(BM_TransportPingPong, ring, TransportMode::ring)
    ->Iterations(kPingPongIters)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TransportPingPong, locked, TransportMode::locked)
    ->Iterations(kPingPongIters)
    ->UseRealTime();
BENCHMARK(BM_TransportPingPongLegacy)->Iterations(kPingPongIters)->UseRealTime();

// --- transport: the scheduler floor ------------------------------------------
// Two threads bounce one atomic token with a yield loop — no transport at
// all. On a single-core host this is the minimum any blocking round trip
// costs; subtract it from the pingpong numbers to get transport overhead.

void BM_TransportNullHandoff(benchmark::State& state) {
  std::atomic<int> token{0};
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (token.load(std::memory_order_acquire) == 1)
        token.store(0, std::memory_order_release);
      else
        std::this_thread::yield();
    }
  });
  for (auto _ : state) {
    token.store(1, std::memory_order_release);
    while (token.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  }
  stop.store(true);
  peer.join();
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TransportNullHandoff)->Iterations(kPingPongIters)->UseRealTime();

// --- transport: saturation streaming -----------------------------------------
// One-way flow of empty messages with the receiver draining concurrently,
// measured to full delivery (receiver acks the batch). Sender-side
// backpressure (ring full -> locked fallback) is part of the measurement;
// items_per_second is the end-to-end saturation rate.

constexpr int kStreamBatch = 8192;

void BM_TransportStream(benchmark::State& state, TransportMode mode) {
  World world(2, mode);
  const std::uint64_t comm_id = world.allocate_comm_id();
  std::thread sink([&] {
    Comm comm(&world, comm_id, 1, {0, 1});
    for (;;) {
      RecvStatus st;
      (void)comm.recv(0, any_tag, &st);
      if (st.tag == 99) break;
      for (int i = 1; i < kStreamBatch; ++i) (void)comm.recv(0, 1);
      comm.send(0, 2, {});  // batch fully delivered
    }
  });
  Comm comm(&world, comm_id, 0, {0, 1});
  const std::uint64_t a0 = g_alloc_count.load();
  for (auto _ : state) {
    for (int i = 0; i < kStreamBatch; ++i) comm.send(1, 1, {});
    (void)comm.recv(1, 2);
  }
  const std::uint64_t a1 = g_alloc_count.load();
  comm.send(1, 99, {});
  sink.join();
  const auto msgs = state.iterations() * kStreamBatch;
  state.SetItemsProcessed(msgs);
  state.counters["allocs_per_msg"] =
      static_cast<double>(a1 - a0) / static_cast<double>(msgs);
}

void BM_TransportStreamLegacy(benchmark::State& state) {
  legacy::Mailbox box0;
  legacy::Mailbox box1;
  std::thread sink([&] {
    for (;;) {
      Message m = box1.recv(1, 0, any_tag);
      if (m.tag == 99) break;
      for (int i = 1; i < kStreamBatch; ++i) (void)box1.recv(1, 0, 1);
      box0.deliver(legacy::make_message(1, 2, {}));
    }
  });
  const std::uint64_t a0 = g_alloc_count.load();
  for (auto _ : state) {
    for (int i = 0; i < kStreamBatch; ++i)
      box1.deliver(legacy::make_message(0, 1, {}));
    (void)box0.recv(1, 1, 2);
  }
  const std::uint64_t a1 = g_alloc_count.load();
  box1.deliver(legacy::make_message(0, 99, {}));
  sink.join();
  const auto msgs = state.iterations() * kStreamBatch;
  state.SetItemsProcessed(msgs);
  state.counters["allocs_per_msg"] =
      static_cast<double>(a1 - a0) / static_cast<double>(msgs);
}

BENCHMARK_CAPTURE(BM_TransportStream, ring, TransportMode::ring)
    ->Iterations(40)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TransportStream, locked, TransportMode::locked)
    ->Iterations(40)
    ->UseRealTime();
BENCHMARK(BM_TransportStreamLegacy)->Iterations(40)->UseRealTime();

// --- macro benchmarks over Environment::run ----------------------------------

void BM_PingPong(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  std::int64_t round_trips = 0;
  for (auto _ : state) {
    state.PauseTiming();
    constexpr int rounds = 64;
    state.ResumeTiming();
    Environment::run(2, [&](Comm& comm) {
      std::vector<std::uint8_t> payload(payload_size, 0x5a);
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 1, payload);
          (void)comm.recv(1, 2);
        } else {
          (void)comm.recv(0, 1);
          comm.send(0, 2, payload);
        }
      }
    });
    round_trips += rounds;
  }
  state.SetItemsProcessed(round_trips);
  state.SetBytesProcessed(round_trips * 2 * static_cast<std::int64_t>(payload_size));
}
BENCHMARK(BM_PingPong)->Arg(8)->Arg(1024)->Arg(64 * 1024);

void BM_SendThroughput(benchmark::State& state) {
  const auto messages = 4096;
  for (auto _ : state) {
    Environment::run(2, [&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < messages; ++i) comm.send_value<int>(1, 1, i);
      } else {
        for (int i = 0; i < messages; ++i) (void)comm.recv(0, 1);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_SendThroughput);

void BM_EnvironmentSpawn(benchmark::State& state) {
  // Cost of standing up and tearing down a world (thread spawn + join).
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Environment::run(ranks, [](Comm&) {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnvironmentSpawn)->Arg(2)->Arg(8)->Arg(16);

}  // namespace
