// CorrStore: the memoized correlation plane under src/svc.
//
// The once-flag contract (compute-once, abandon hand-off, LRU byte budget)
// belongs to obs::OnceCache and is tested in test_once_cache.cpp. Here: the
// key CorrStore files days under, compute-once and LRU eviction through the
// typed front, and bit-identity — a pipeline served from the store produces
// a master report identical to a cold run (orders, PnL bits, trade returns),
// at any replica count and under concurrent runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "stats/corr_store.hpp"

namespace mm::stats {
namespace {

CorrKey key_of(const char* universe, std::int32_t date) {
  CorrKey k;
  k.universe = universe;
  k.date = date;
  k.delta_s = 15;
  k.window = 30;
  k.estimator = "pearson";
  return k;
}

CorrDay day_of(std::size_t frames, std::size_t frame_bytes, std::uint8_t fill) {
  CorrDay day;
  day.frames.assign(frames, std::vector<std::uint8_t>(frame_bytes, fill));
  return day;
}

TEST(CorrKey, CacheKeyIsCanonicalAndDiscriminates) {
  const CorrKey a = key_of("synthetic/6/0", 20080303);
  EXPECT_EQ(a.cache_key(), "u=synthetic/6/0|d=20080303|s=15|w=30|e=pearson");
  CorrKey b = a;
  b.window = 31;
  CorrKey c = a;
  c.estimator = "pearson+maronna";
  EXPECT_NE(a.cache_key(), b.cache_key());
  EXPECT_NE(a.cache_key(), c.cache_key());
  EXPECT_EQ(a.cache_key(), key_of("synthetic/6/0", 20080303).cache_key());
}

TEST(CorrStore, FilesDaysByCacheKeyAndChargesCorrDayBytes) {
  obs::Registry registry;
  CorrStore store(/*byte_budget=*/0, &registry);
  CorrDay day;
  day.frames.assign(4, std::vector<std::uint8_t>(100, 7));
  const std::size_t bytes = day.bytes();

  store.acquire(key_of("u", 1)).publish(std::move(day));
  EXPECT_NE(store.peek(key_of("u", 1)), nullptr);
  EXPECT_EQ(store.peek(key_of("u", 2)), nullptr);
  EXPECT_TRUE(store.acquire(key_of("u", 1)).hit());
  EXPECT_EQ(store.bytes(), bytes);
  EXPECT_EQ(registry.counter("corr_store.computes").value(), 1u);
  EXPECT_EQ(registry.counter("corr_store.hits").value(), 1u);
  EXPECT_EQ(registry.gauge("corr_store.bytes").value(),
            static_cast<std::int64_t>(bytes));
}

TEST(CorrStore, ConcurrentSameKeyComputesExactlyOnce) {
  CorrStore store;
  const CorrKey key = key_of("shared", 20080303);
  constexpr int kThreads = 8;

  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<const CorrDay*> seen(kThreads, nullptr);
  std::vector<std::shared_ptr<const CorrDay>> held(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto lease = store.acquire(key);
      if (lease.owner()) {
        computes.fetch_add(1);
        // Hold the once-flag long enough that the other threads pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
        lease.publish(day_of(8, 64, 3));
        held[t] = store.peek(key);
      } else {
        held[t] = lease.data();
      }
      seen[t] = held[t].get();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(computes.load(), 1);
  const auto stats = store.stats();
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.abandons, 0u);
  // Everyone ended up with the SAME published day (pointer-identical).
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]);
  }
}

TEST(CorrStore, EvictionRespectsByteBudgetInLruOrder) {
  // Each day ≈ 4 frames x 1000 bytes; a ~10 KiB budget holds two days.
  CorrStore store(/*byte_budget=*/10'000);
  const CorrKey a = key_of("u", 1), b = key_of("u", 2), c = key_of("u", 3);

  store.acquire(a).publish(day_of(4, 1000, 1));
  store.acquire(b).publish(day_of(4, 1000, 2));
  EXPECT_EQ(store.entries(), 2u);

  // Keep an in-flight replay of A alive, then touch A so B is the LRU victim.
  const auto held_a = store.peek(a);
  ASSERT_NE(held_a, nullptr);
  { auto touch = store.acquire(a); }
  store.acquire(c).publish(day_of(4, 1000, 3));

  const auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_LE(store.bytes(), 10'000u);
  EXPECT_NE(store.peek(a), nullptr);
  EXPECT_EQ(store.peek(b), nullptr);  // LRU victim
  EXPECT_NE(store.peek(c), nullptr);

  // The evicted-or-not distinction never touches in-flight readers.
  EXPECT_EQ(held_a->frames[0][0], 1);

  // An oversized single day still publishes (never evict the newest).
  store.acquire(key_of("u", 4)).publish(day_of(4, 100'000, 4));
  EXPECT_NE(store.peek(key_of("u", 4)), nullptr);
}

// --- engine integration: memoized replay is bit-identical -------------------

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

engine::PipelineConfig pipeline_config(std::size_t symbols) {
  engine::PipelineConfig cfg;
  cfg.symbols = symbols;
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = stats::Ctype::pearson;
  p.divergence = 0.0005;
  core::StrategyParams q = p;
  q.divergence = 0.001;
  cfg.strategies = {p, q};
  return cfg;
}

bool bits_equal(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Arrival order at the master interleaves the strategy workers' threads, so
// the raw order_log is a race even between two identical runs; compare the
// canonically sorted multiset instead. Per-strategy streams (the summaries)
// ARE deterministic and compare bit-for-bit.
std::vector<engine::Order> canonical_orders(const engine::MasterReport& r) {
  std::vector<engine::Order> orders = r.order_log;
  std::sort(orders.begin(), orders.end(),
            [](const engine::Order& a, const engine::Order& b) {
              if (a.interval != b.interval) return a.interval < b.interval;
              if (a.strategy_id != b.strategy_id)
                return a.strategy_id < b.strategy_id;
              if (a.symbol_i != b.symbol_i) return a.symbol_i < b.symbol_i;
              if (a.symbol_j != b.symbol_j) return a.symbol_j < b.symbol_j;
              return a.is_entry > b.is_entry;
            });
  return orders;
}

void expect_identical_reports(const engine::MasterReport& a,
                              const engine::MasterReport& b) {
  EXPECT_EQ(a.orders, b.orders);
  EXPECT_EQ(a.trades, b.trades);

  const auto oa = canonical_orders(a);
  const auto ob = canonical_orders(b);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].interval, ob[i].interval);
    EXPECT_EQ(oa[i].strategy_id, ob[i].strategy_id);
    EXPECT_EQ(oa[i].symbol_i, ob[i].symbol_i);
    EXPECT_EQ(oa[i].symbol_j, ob[i].symbol_j);
    // Bit-level equality, not tolerance: the replayed frames are the same
    // bytes, so every downstream double must match exactly.
    EXPECT_TRUE(bits_equal(oa[i].shares_i, ob[i].shares_i)) << "order " << i;
    EXPECT_TRUE(bits_equal(oa[i].shares_j, ob[i].shares_j)) << "order " << i;
    EXPECT_TRUE(bits_equal(oa[i].price_i, ob[i].price_i)) << "order " << i;
    EXPECT_TRUE(bits_equal(oa[i].price_j, ob[i].price_j)) << "order " << i;
  }

  ASSERT_EQ(a.strategy_summaries.size(), b.strategy_summaries.size());
  for (std::size_t i = 0; i < a.strategy_summaries.size(); ++i) {
    const auto& sa = a.strategy_summaries[i];
    const auto& sb = b.strategy_summaries[i];
    EXPECT_EQ(sa.strategy_id, sb.strategy_id);
    EXPECT_EQ(sa.trades, sb.trades);
    EXPECT_TRUE(bits_equal(sa.total_pnl, sb.total_pnl)) << "strategy " << i;
    ASSERT_EQ(sa.trade_returns.size(), sb.trade_returns.size());
    for (std::size_t k = 0; k < sa.trade_returns.size(); ++k)
      EXPECT_TRUE(bits_equal(sa.trade_returns[k], sb.trade_returns[k]))
          << "strategy " << i << " trade " << k;
  }
  EXPECT_DOUBLE_EQ(a.total_pnl, b.total_pnl);
}

TEST(CorrStorePipeline, MemoizedReplayIsBitIdenticalToColdRun) {
  const auto scenario = make_scenario(6, 2);
  const CorrKey key = key_of("synthetic/6/2", 20080303);

  // Cold run without any store: the reference.
  auto cfg = pipeline_config(6);
  const auto reference = engine::run_pipeline(cfg, scenario.universe,
                                              scenario.quotes);
  ASSERT_GT(reference.master.trades, 0u);
  ASSERT_EQ(reference.master.strategy_summaries.size(), 2u);

  CorrStore store;
  cfg.corr_store = &store;
  cfg.corr_key = key;

  // First store-backed run computes and publishes...
  const auto first = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_EQ(store.stats().computes, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
  expect_identical_reports(reference.master, first.master);

  // ...the second replays without re-estimating.
  const auto second = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_EQ(store.stats().computes, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  expect_identical_reports(reference.master, second.master);
}

TEST(CorrStorePipeline, CleanerConfigChangeComputesAgain) {
  // The frames depend on the cleaner's band: a run with another band_k on
  // the same store and caller key must compute its own day, not replay.
  const auto scenario = make_scenario(6, 2);
  CorrStore store;
  auto cfg = pipeline_config(6);
  cfg.corr_store = &store;
  cfg.corr_key = key_of("synthetic/6/2", 20080303);
  const auto first = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  const auto again = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_EQ(store.stats().computes, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  expect_identical_reports(first.master, again.master);

  auto narrow = cfg;
  narrow.cleaner.band_k = 2.0;
  EXPECT_NE(engine::stamped_corr_key(narrow).cache_key(),
            engine::stamped_corr_key(cfg).cache_key());
  const auto computed = engine::run_pipeline(narrow, scenario.universe, scenario.quotes);
  EXPECT_EQ(store.stats().computes, 2u);
  EXPECT_EQ(store.stats().hits, 1u);

  narrow.corr_store = nullptr;
  const auto reference = engine::run_pipeline(narrow, scenario.universe, scenario.quotes);
  expect_identical_reports(reference.master, computed.master);
}

TEST(CorrStorePipeline, ReplayIsBitIdenticalAcrossReplicaCounts) {
  // Frames are bit-identical at every correlation group size, so a day
  // memoized by one group size replays under any other.
  const auto scenario = make_scenario(6, 4);
  auto cfg = pipeline_config(6);
  cfg.strategies.front().ctype = stats::Ctype::combined;
  const auto reference = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  ASSERT_GT(reference.master.trades, 0u);

  cfg.corr_key = key_of("synthetic/6/4", 20080303);
  cfg.corr_key.estimator = "pearson+maronna";
  for (const auto& [compute_replicas, replay_replicas] :
       {std::pair{3, 1}, std::pair{1, 3}}) {
    CorrStore store;
    cfg.corr_store = &store;
    cfg.correlation_replicas = compute_replicas;
    const auto computed = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
    cfg.correlation_replicas = replay_replicas;
    const auto replayed = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);

    EXPECT_EQ(store.stats().computes, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    expect_identical_reports(reference.master, computed.master);
    expect_identical_reports(reference.master, replayed.master);
  }
}

TEST(CorrStorePipeline, ReplayRunsOnlyReplayStrategiesAndMaster) {
  // A hit builds the replay graph: no collector, cleaner, snapshot or
  // correlation node runs, and the stored frames feed the strategies and the
  // cluster branch alike.
  const auto scenario = make_scenario(6, 2);
  CorrStore store;
  auto cfg = pipeline_config(6);
  cfg.corr_store = &store;
  cfg.corr_key = key_of("synthetic/6/2", 20080303);
  cfg.cluster_every = 10;
  const auto computed = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  const auto replayed = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  ASSERT_FALSE(computed.degraded);
  ASSERT_FALSE(replayed.degraded);
  EXPECT_FALSE(computed.replayed);
  EXPECT_TRUE(replayed.replayed);
  EXPECT_EQ(store.stats().hits, 1u);

  std::vector<std::string> names;
  for (const auto& stage : replayed.stages) names.push_back(stage.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"replay", "strategy-0", "strategy-1", "master"}));
  ASSERT_EQ(computed.stages.size(), 7u);
  ASSERT_EQ(computed.stages[3].name, "correlation");
  EXPECT_EQ(replayed.stages.front().records_out, computed.stages[3].records_out);
  EXPECT_EQ(replayed.quotes_in, 0u);
  for (const auto& metric : replayed.metrics.metrics)
    EXPECT_NE(metric.name.rfind("dag.collector.", 0), 0u) << metric.name;

  expect_identical_reports(computed.master, replayed.master);
  ASSERT_FALSE(computed.clusters.empty());
  ASSERT_EQ(replayed.clusters.size(), computed.clusters.size());
  for (std::size_t i = 0; i < computed.clusters.size(); ++i) {
    EXPECT_EQ(replayed.clusters[i].interval, computed.clusters[i].interval);
    EXPECT_EQ(replayed.clusters[i].assignment, computed.clusters[i].assignment);
  }
}

TEST(CorrStorePipeline, DegradedRunNeverPublishes) {
  // A quote outside the universe a third of the way in fails the cleaner.
  // The snapshot stage still pads the session out to its full interval
  // count, so the correlation stage emits a whole day's worth of frames; the
  // run is degraded all the same, and its truncated day must not be filed.
  const auto scenario = make_scenario(6, 2);
  auto bad = scenario.quotes;
  bad[bad.size() / 3].symbol = 99;

  CorrStore store;
  engine::PipelineConfig cfg;
  cfg.symbols = 6;
  cfg.strategies = {core::ParamGrid::base()};
  cfg.strategies.front().ctype = stats::Ctype::pearson;
  cfg.corr_store = &store;
  cfg.corr_key = key_of("synthetic/6/2", 20080303);
  const auto degraded = engine::run_pipeline(cfg, scenario.universe, bad);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_EQ(store.stats().abandons, 1u);

  // The clean day under the same key computes again, and matches a run
  // without any store.
  const auto clean = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  EXPECT_FALSE(clean.degraded);
  EXPECT_FALSE(clean.replayed);
  EXPECT_EQ(store.entries(), 1u);
  cfg.corr_store = nullptr;
  const auto reference = engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
  ASSERT_GT(reference.master.trades, 0u);
  expect_identical_reports(reference.master, clean.master);
}

TEST(CorrStorePipeline, ConcurrentPipelinesShareOneCompute) {
  const auto scenario = make_scenario(5, 3);
  const CorrKey key = key_of("synthetic/5/3", 20080303);
  CorrStore store;

  constexpr int kRuns = 3;
  std::vector<engine::PipelineResult> results(kRuns);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRuns; ++r) {
    threads.emplace_back([&, r] {
      auto cfg = pipeline_config(5);
      cfg.corr_store = &store;
      cfg.corr_key = key;
      results[static_cast<std::size_t>(r)] =
          engine::run_pipeline(cfg, scenario.universe, scenario.quotes);
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = store.stats();
  EXPECT_EQ(stats.computes, 1u) << "day computed more than once";
  EXPECT_EQ(stats.misses, 1u);
  // Every run resolved to the one published day: one miss, the rest hits
  // (possibly after a wait).
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kRuns));
  for (int r = 1; r < kRuns; ++r)
    expect_identical_reports(results[0].master,
                             results[static_cast<std::size_t>(r)].master);
}

}  // namespace
}  // namespace mm::stats
