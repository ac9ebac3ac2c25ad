// OnceCache: the single-flight, byte-budgeted LRU cache behind
// stats::CorrStore and md::DayCache.
//
// The contract both fronts rely on:
//   1. compute-once — N concurrent acquirers of one key produce exactly one
//      compute and all share the one published value;
//   2. hand-off — an owner that abandons passes ownership to exactly one
//      blocked waiter; the rest wait behind it;
//   3. no poisoning — an abandoned (failed) compute is never cached;
//   4. bounded residency — eviction keeps the byte budget in LRU order,
//      never evicts the newest entry and never invalidates a held value.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/once_cache.hpp"
#include "obs/registry.hpp"

namespace mm::obs {
namespace {

// A value whose resident size the test chooses.
struct Blob {
  std::size_t size = 0;
  int tag = 0;
};

std::size_t blob_bytes(const Blob& blob) { return blob.size; }

using Cache = OnceCache<Blob>;

// Spin until `n` callers are blocked behind the key's owner.
void await_waiters(const Cache& cache, std::uint64_t n) {
  while (cache.stats().waits < n) std::this_thread::yield();
}

TEST(OnceCache, MissThenPublishThenHit) {
  Registry registry;
  Cache cache("blob", blob_bytes, 0, &registry);

  {
    auto lease = cache.acquire("k");
    ASSERT_TRUE(lease.owner());
    EXPECT_FALSE(lease.hit());
    EXPECT_EQ(cache.peek("k"), nullptr);  // computing, not published
    EXPECT_EQ(cache.entries(), 0u);
    const auto published = lease.publish(Blob{400, 7});
    ASSERT_NE(published, nullptr);
    EXPECT_FALSE(lease.owner());
    EXPECT_EQ(published, cache.peek("k"));
  }
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 400u);

  auto lease = cache.acquire("k");
  EXPECT_FALSE(lease.owner());
  ASSERT_TRUE(lease.hit());
  EXPECT_EQ(lease.data()->tag, 7);
  EXPECT_EQ(cache.peek("other"), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_EQ(stats.abandons, 0u);
  EXPECT_EQ(stats.evictions, 0u);

  // The registry mirrors the native stats under the metric prefix.
  EXPECT_EQ(registry.counter("blob.misses").value(), 1u);
  EXPECT_EQ(registry.counter("blob.computes").value(), 1u);
  EXPECT_EQ(registry.counter("blob.hits").value(), 1u);
  EXPECT_EQ(registry.gauge("blob.bytes").value(), 400);
  EXPECT_EQ(registry.gauge("blob.days").value(), 1);
}

TEST(OnceCache, ConcurrentAcquirersComputeExactlyOnce) {
  Cache cache("blob", blob_bytes);
  constexpr int kThreads = 8;

  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<Cache::Ptr> held(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto lease = cache.acquire("shared");
      if (lease.owner()) {
        computes.fetch_add(1);
        // Hold the once-flag long enough that the other threads pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
        held[static_cast<std::size_t>(t)] = lease.publish(Blob{64, 3});
      } else {
        held[static_cast<std::size_t>(t)] = lease.data();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(computes.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.abandons, 0u);
  // Every non-owner resolves to a hit, after waiting if it arrived early.
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_LE(stats.waits, static_cast<std::uint64_t>(kThreads - 1));
  // Everyone holds the SAME published value (pointer-identical).
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(held[static_cast<std::size_t>(t)], nullptr) << "thread " << t;
    EXPECT_EQ(held[static_cast<std::size_t>(t)], held[0]);
  }
}

TEST(OnceCache, AbandonHandsOwnershipToExactlyOneWaiter) {
  Cache cache("blob", blob_bytes);
  constexpr int kWaiters = 4;

  auto first = std::make_unique<Cache::Lease>(cache.acquire("flaky"));
  ASSERT_TRUE(first->owner());

  std::atomic<int> owners{0};
  std::vector<Cache::Ptr> held(kWaiters);
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      auto lease = cache.acquire("flaky");  // blocks until the abandon
      if (lease.owner()) {
        owners.fetch_add(1);
        // The successor computes while the others stay blocked behind it.
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
        held[static_cast<std::size_t>(w)] = lease.publish(Blob{16, 9});
      } else {
        held[static_cast<std::size_t>(w)] = lease.data();
      }
    });
  }
  await_waiters(cache, kWaiters);
  // Destroyed without publish: an aborted compute hands off ownership.
  first.reset();
  for (auto& th : waiters) th.join();

  EXPECT_EQ(owners.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.abandons, 1u);
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the first owner and its one successor
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kWaiters - 1));
  for (int w = 0; w < kWaiters; ++w) {
    ASSERT_NE(held[static_cast<std::size_t>(w)], nullptr) << "waiter " << w;
    EXPECT_EQ(held[static_cast<std::size_t>(w)], held[0]);
  }
  ASSERT_NE(cache.peek("flaky"), nullptr);
  EXPECT_EQ(cache.peek("flaky")->tag, 9);
}

TEST(OnceCache, FailedComputeIsNeverCached) {
  Registry registry;
  Cache cache("blob", blob_bytes, 0, &registry);

  // A failed load: the owner drops its lease without publishing.
  { auto failed = cache.acquire("k"); ASSERT_TRUE(failed.owner()); }
  EXPECT_EQ(cache.peek("k"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().abandons, 1u);
  EXPECT_EQ(registry.counter("blob.abandons").value(), 1u);

  // The next caller is a fresh owner, not a hit on a poisoned entry.
  auto retry = cache.acquire("k");
  ASSERT_TRUE(retry.owner());
  retry.publish(Blob{8, 1});
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(OnceCache, EvictsLruWithinBudgetAndNeverTheNewest) {
  // A budget that holds two 1000-byte values but not three.
  Cache cache("blob", blob_bytes, /*byte_budget=*/2'500);

  cache.acquire("a").publish(Blob{1000, 1});
  cache.acquire("b").publish(Blob{1000, 2});
  EXPECT_EQ(cache.entries(), 2u);

  // Hold B like an in-flight replay, then touch A so B is the LRU victim.
  const auto held_b = cache.peek("b");
  ASSERT_NE(held_b, nullptr);
  EXPECT_TRUE(cache.acquire("a").hit());
  cache.acquire("c").publish(Blob{1000, 3});

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2'000u);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);  // LRU victim
  EXPECT_NE(cache.peek("c"), nullptr);
  // Eviction dropped only the cache's reference; ours still reads fine.
  EXPECT_EQ(held_b->tag, 2);

  // A value larger than the whole budget still publishes: everything older
  // goes, the newest stays.
  cache.acquire("big").publish(Blob{10'000, 4});
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 10'000u);
  ASSERT_NE(cache.peek("big"), nullptr);
  EXPECT_EQ(cache.peek("big")->tag, 4);
}

}  // namespace
}  // namespace mm::obs
