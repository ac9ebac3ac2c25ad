// Shared read-only day cache: load each trading day's quote vector once,
// hand every concurrent backtest the same immutable buffer.
//
// The backtest service (src/svc) runs many tenants' jobs over overlapping
// (day, universe) pairs. Without sharing, every pipeline copies the full day
// into its collector; with the cache, N concurrent runs hold N shared_ptrs to
// ONE std::vector<Quote> (PipelineConfig::day) and the collector replays it
// in place.
//
// DayCache is a typed front over obs::OnceCache (see obs/once_cache.hpp for
// the once-flag contract): get() acquires the key and, on a miss, runs the
// loader outside the cache lock and publishes the day. A failed load is not
// cached: the error goes to the owning caller, its lease is dropped (counted
// as day_cache.abandons) and one blocked waiter inherits ownership and
// retries the loader. Budgeted bytes are each day's quote capacity.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "marketdata/types.hpp"
#include "obs/once_cache.hpp"
#include "obs/registry.hpp"

namespace mm::md {

class DayCache : private obs::OnceCache<std::vector<Quote>> {
 public:
  using Day = Ptr;
  // Resolves a cache key to a time-sorted day of quotes. Runs outside the
  // cache lock; may block on IO. Must be safe to call from any thread.
  using Loader = std::function<Expected<std::vector<Quote>>(const std::string& key)>;

  // byte_budget 0 = unbounded. `registry` mirrors the stats as day_cache.*
  // counters and gauges.
  explicit DayCache(Loader loader, std::size_t byte_budget = 0,
                    obs::Registry* registry = nullptr);

  // The shared day for `key`, loading it exactly once under concurrency.
  Expected<Day> get(const std::string& key);

  // Cache over a tickdb store at `root`; keys are ISO dates ("2008-03-03").
  static DayCache from_tickdb(std::string root, std::size_t byte_budget = 0,
                              obs::Registry* registry = nullptr);

  using OnceCache::Stats;
  using OnceCache::bytes;
  using OnceCache::entries;
  using OnceCache::peek;
  using OnceCache::stats;

 private:
  Loader loader_;
};

}  // namespace mm::md
