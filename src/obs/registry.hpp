// mm::obs — low-overhead telemetry: named counters, gauges and fixed-bucket
// histograms.
//
// Hot-path contract: an update is one thread-local shard lookup plus one
// relaxed atomic RMW on a cache-line-aligned slot — no locks, no allocation,
// no stronger ordering (bench_obs keeps the counter increment under 10 ns).
// Shard counts are powers of two so the thread → shard map is a mask; values
// are aggregated across shards only on the (cold) read side.
//
// Registration (Registry::counter/gauge/histogram) takes a mutex and may
// allocate — do it once at component setup and keep the returned reference;
// references stay valid for the registry's lifetime.
//
// Telemetry is always compiled in. perfbench's CMake still offers a
// telemetry-off option; the guard below fails that build instead of letting
// it compile full telemetry while reporting it off.
#pragma once

#if defined(MM_OBS_ENABLED) && !MM_OBS_ENABLED
#error "mm::obs is always compiled in; MM_OBS_ENABLED=0 is no longer supported"
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mm::obs {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

// One metric's aggregated value at snapshot time (cold side; plain data).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::counter;
  std::int64_t value = 0;   // counter total or gauge value
  std::uint64_t count = 0;  // histogram: number of recorded samples
  std::int64_t sum = 0;     // histogram: sum of recorded samples
  // Histogram: ascending upper bounds; buckets has bounds.size() + 1 entries,
  // the last being the overflow bucket (see Histogram for the boundary rule).
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;

  double mean() const { return count > 0 ? static_cast<double>(sum) / count : 0.0; }

  // Interpolated quantile estimate (q in [0, 1]) for a histogram: the rank
  // q*count is located in the cumulative bucket counts and the value is
  // linearly interpolated inside that bucket's [lower, upper) range. Samples
  // in the overflow bucket are pinned to the last bound (the estimate cannot
  // exceed it), mirroring Prometheus's histogram_quantile. Returns 0 when the
  // histogram is empty, mean() when it has no bounds.
  double quantile(double q) const;
};

struct Snapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* find(const std::string& name) const;
  // Sum of `value` over counters whose name starts with `prefix`.
  std::int64_t counter_total(const std::string& prefix) const;
  // Sum of `value` over counters whose name ends with `suffix`.
  std::int64_t counter_suffix_total(const std::string& suffix) const;
  std::string to_string() const;  // human-readable table
  std::string to_json() const;    // {"metrics": [...]}

  // Monotonic-delta view: this snapshot minus `base`. Counter values and
  // histogram counts/sums/buckets subtract (clamped at zero, so a registry
  // reset between the two snapshots degrades to the current values); gauges
  // are levels and keep their current value. Metrics absent from `base` pass
  // through unchanged. This is how one registry serves both a long-lived
  // Prometheus scrape (monotonic totals) and per-run / per-interval views
  // (deltas) without destructive resets.
  Snapshot delta(const Snapshot& base) const;
};

// Default histogram bounds for nanosecond latencies: powers of four from
// 1 µs to ~4.3 s (12 bounds, 13 buckets including overflow).
std::vector<std::int64_t> default_latency_bounds_ns();

inline constexpr std::size_t kShardCount = 16;  // power of two

namespace detail {

// Per-thread shard index: hashed once per thread, then a TLS read per update.
inline std::size_t shard_index() noexcept {
  static thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & (kShardCount - 1);
  return index;
}

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) PaddedI64 {
  std::atomic<std::int64_t> value{0};
};

}  // namespace detail

// Monotonic event counter. add() is wait-free and uses relaxed ordering; the
// total is exact (every add lands in exactly one shard) but a concurrent
// value() read may miss in-flight updates.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedU64 shards_[kShardCount];
};

// Last-writer-wins level (set/add) with a monotonic watermark helper
// (max_of). Unsharded: gauges record state, not per-event traffic.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.value.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t delta) noexcept {
    value_.value.fetch_add(delta, std::memory_order_relaxed);
  }

  // Raise the gauge to `v` if it is below it (high-watermark semantics).
  void max_of(std::int64_t v) noexcept {
    std::int64_t seen = value_.value.load(std::memory_order_relaxed);
    while (seen < v &&
           !value_.value.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const noexcept {
    return value_.value.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.value.store(0, std::memory_order_relaxed); }

 private:
  detail::PaddedI64 value_;
};

// Fixed-bucket histogram over int64 samples (latencies in ns by convention).
//
// Boundary rule: for ascending bounds b0 < b1 < ... < b{B-1},
//   bucket 0      counts samples v with            v <  b0
//   bucket i      counts samples v with  b{i-1} <= v <  bi   (0 < i < B)
//   bucket B      counts samples v with  b{B-1} <= v         (overflow)
// i.e. every bucket's lower bound is inclusive and its upper bound exclusive.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void record(std::int64_t v) noexcept {
    const std::size_t shard = detail::shard_index();
    counts_[shard * stride_ + bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sums_[shard].value.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  std::size_t bucket_count() const { return bounds_.size() + 1; }

  // Aggregated across shards (relaxed; exact once writers are quiescent).
  std::vector<std::uint64_t> bucket_values() const;
  std::uint64_t count() const;
  std::int64_t sum() const;
  void reset() noexcept;

 private:
  std::size_t bucket_of(std::int64_t v) const noexcept {
    // Linear scan: latency histograms have ~a dozen buckets and the common
    // sample lands early; a branchy binary search is not faster at this size.
    std::size_t i = 0;
    for (const auto bound : bounds_) {
      if (v < bound) return i;
      ++i;
    }
    return i;  // overflow bucket
  }

  std::vector<std::int64_t> bounds_;
  std::size_t stride_ = 0;  // per-shard row length, padded to a cache line
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // [shard * stride_ + b]
  detail::PaddedI64 sums_[kShardCount];
};

// Named metric registry. Lookup/creation is mutex-guarded (cold path);
// returned references are stable for the registry's lifetime, so components
// resolve their handles once and update lock-free afterwards.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Bounds are fixed at first registration; later calls with the same name
  // return the existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds = default_latency_bounds_ns());

  // Aggregate every metric (name-sorted). Safe concurrently with updates;
  // values are a relaxed point-in-time view.
  Snapshot snapshot() const;

  // Zero every metric. NOT safe concurrently with updates; meant for reuse
  // between runs in tests and benches.
  void reset();

  // Process-wide default registry for components without an explicit one.
  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mm::obs
