// DayCache: the loader front over obs::OnceCache (whose once-flag and LRU
// contract test_once_cache.cpp covers) — one load under concurrent getters,
// LRU eviction of quote bytes — and its tickdb-backed factory.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "marketdata/day_cache.hpp"
#include "marketdata/tickdb.hpp"

namespace {

using mm::Errc;
using mm::Error;
using mm::Expected;
using mm::md::DayCache;
using mm::md::Quote;

std::vector<Quote> make_day(int n, double base_price) {
  std::vector<Quote> quotes;
  for (int i = 0; i < n; ++i) {
    Quote q;
    q.ts_ms = 34'200'000 + i * 1000;
    q.symbol = static_cast<mm::md::SymbolId>(i % 4);
    q.bid = base_price;
    q.ask = base_price + 0.01;
    q.bid_size = 100;
    q.ask_size = 100;
    quotes.push_back(q);
  }
  return quotes;
}

TEST(DayCache, LoadsOncePerKeyAndServesSharedBuffers) {
  std::atomic<int> loads{0};
  DayCache cache([&](const std::string& key) -> Expected<std::vector<Quote>> {
    loads.fetch_add(1);
    return make_day(8, key == "a" ? 100.0 : 50.0);
  });

  auto a1 = cache.get("a");
  ASSERT_TRUE(a1.has_value());
  auto a2 = cache.get("a");
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1.value().get(), a2.value().get());  // same immutable buffer
  EXPECT_EQ(loads.load(), 1);

  auto b = cache.get("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(loads.load(), 2);
  EXPECT_DOUBLE_EQ(b.value()->front().bid, 50.0);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("missing"), nullptr);
}

TEST(DayCache, ConcurrentGettersShareOneLoad) {
  std::atomic<int> loads{0};
  DayCache cache([&](const std::string&) -> Expected<std::vector<Quote>> {
    loads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return make_day(16, 100.0);
  });

  constexpr int kThreads = 8;
  std::vector<DayCache::Day> days(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto day = cache.get("2008-03-03");
      ASSERT_TRUE(day.has_value());
      days[static_cast<std::size_t>(t)] = day.value();
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(loads.load(), 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(days[static_cast<std::size_t>(t)].get(), days[0].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  // Every non-owner resolves to a hit (after waiting if it arrived early).
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_LE(stats.waits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(DayCache, FailedLoadIsNotCachedAndHandsOffToWaiters) {
  std::atomic<int> loads{0};
  DayCache cache([&](const std::string&) -> Expected<std::vector<Quote>> {
    if (loads.fetch_add(1) == 0)
      return Error(Errc::io_error, "disk on fire");
    return make_day(4, 100.0);
  });

  auto first = cache.get("k");
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, Errc::io_error);
  EXPECT_EQ(cache.entries(), 0u);

  // The failure was not cached: the next caller retries the loader.
  auto second = cache.get("k");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(loads.load(), 2);
  EXPECT_EQ(cache.stats().abandons, 1u);
}

TEST(DayCache, ChargesQuoteCapacityAndReportsDayCacheMetrics) {
  mm::obs::Registry registry;
  DayCache cache(
      [](const std::string& key) -> Expected<std::vector<Quote>> {
        if (key == "bad") return Error(Errc::io_error, "no such day");
        auto day = make_day(64, 100.0);
        day.reserve(100);
        return day;
      },
      0, &registry);

  auto day = cache.get("a");
  ASSERT_TRUE(day.has_value());
  EXPECT_FALSE(cache.get("bad").has_value());
  const std::size_t bytes =
      sizeof(std::vector<Quote>) + day.value()->capacity() * sizeof(Quote);
  EXPECT_GE(day.value()->capacity(), 100u);
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(registry.counter("day_cache.misses").value(), 2u);
  EXPECT_EQ(registry.counter("day_cache.computes").value(), 1u);
  EXPECT_EQ(registry.counter("day_cache.abandons").value(), 1u);
  EXPECT_EQ(registry.gauge("day_cache.bytes").value(),
            static_cast<std::int64_t>(bytes));
  EXPECT_EQ(registry.gauge("day_cache.days").value(), 1);
}

TEST(DayCache, EvictionRespectsByteBudgetInLruOrder) {
  const std::size_t one_day = sizeof(std::vector<Quote>) + 64 * sizeof(Quote);
  DayCache cache(
      [&](const std::string&) -> Expected<std::vector<Quote>> {
        auto day = make_day(64, 100.0);
        day.shrink_to_fit();
        return day;
      },
      2 * one_day + one_day / 2);

  ASSERT_TRUE(cache.get("a").has_value());
  ASSERT_TRUE(cache.get("b").has_value());
  EXPECT_EQ(cache.entries(), 2u);

  // Touch "a" so "b" is the LRU victim when "c" lands.
  auto held_b = cache.get("b").value();
  ASSERT_TRUE(cache.get("a").has_value());
  ASSERT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Eviction dropped only the cache's reference; ours still reads fine.
  EXPECT_EQ(held_b->size(), 64u);

  // A single day larger than the budget still publishes (newest is immune).
  DayCache tiny(
      [&](const std::string&) -> Expected<std::vector<Quote>> {
        return make_day(64, 100.0);
      },
      16);
  ASSERT_TRUE(tiny.get("big").has_value());
  EXPECT_EQ(tiny.entries(), 1u);
}

TEST(DayCache, FromTickdbLoadsIsoDatesAndRejectsBadKeys) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "mm_day_cache_test").string();
  std::filesystem::remove_all(root);
  auto db = mm::md::TickDb::open(root);
  ASSERT_TRUE(db.has_value());
  const auto day = make_day(32, 75.0);
  ASSERT_TRUE(db.value().write_day({2008, 3, 3}, day).has_value());

  auto cache = DayCache::from_tickdb(root);
  auto loaded = cache.get("2008-03-03");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded.value()->size(), day.size());
  EXPECT_DOUBLE_EQ(loaded.value()->front().bid, 75.0);

  EXPECT_FALSE(cache.get("not-a-date").has_value());
  EXPECT_FALSE(cache.get("2008-03-04").has_value());  // absent day
  std::filesystem::remove_all(root);
}

}  // namespace
