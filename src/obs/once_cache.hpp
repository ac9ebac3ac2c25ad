// Single-flight, byte-budgeted LRU cache: compute each key's value once,
// share the immutable result with every caller.
//
// The backtest service keeps two of these across jobs: stats::CorrStore
// (memoized correlation days) and md::DayCache (quote days). Both are thin
// typed fronts over this template; the once-flag protocol lives only here.
//
// Concurrency contract (the once-flag):
//   * acquire() on a published key returns a hit Lease holding the value;
//   * the FIRST caller through a missing key gets an owner Lease and must
//     publish() the value, or abandon it by destroying the Lease unpublished
//     (a failed load or a fault-aborted run must not poison the cache);
//   * concurrent callers on a key being computed BLOCK until the owner
//     publishes or abandons. An abandon erases the entry, so exactly one
//     waiter re-creates it as the next owner and the rest wait behind that
//     owner: a value is computed once per failure-free attempt.
//
// Published values are immutable shared_ptr<const V>. Eviction (LRU by last
// acquire, bounded by byte_budget) drops only the cache's reference, never a
// caller's, and never the most recently used entry.
//
// Native Stats are kept under the cache mutex so tests and perfbench can
// assert compute-once without a registry; with a registry each event is
// mirrored as a `<prefix>.<stat>` counter, and `<prefix>.bytes` /
// `<prefix>.days` gauges track residency (both fronts cache whole days).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace mm::obs {

template <typename V>
class OnceCache {
 public:
  using Ptr = std::shared_ptr<const V>;
  // Resident bytes of one published value, charged against the budget.
  using SizeOf = std::size_t (*)(const V&);

  struct Stats {
    std::uint64_t hits = 0;       // acquire() served a published value
    std::uint64_t misses = 0;     // acquire() made the caller the owner
    std::uint64_t waits = 0;      // acquire() blocked behind an owner
    std::uint64_t computes = 0;   // values published
    std::uint64_t abandons = 0;   // owner leases dropped unpublished
    std::uint64_t evictions = 0;  // values dropped by the byte budget
  };

  // Hit (data()) or ownership (owner(): publish, or abandon on destruction).
  // Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : cache_(std::exchange(other.cache_, nullptr)),
          key_(std::move(other.key_)), data_(std::move(other.data_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease() {
      if (cache_ != nullptr) cache_->abandon(key_);
    }

    // Published value; null while this lease owns the compute.
    const Ptr& data() const { return data_; }
    bool hit() const { return data_ != nullptr; }
    // True while this caller must compute the value and publish() it.
    bool owner() const { return cache_ != nullptr; }
    // Publish the computed value (owner only); unblocks every waiter and
    // returns the shared copy now resident in the cache.
    Ptr publish(V value) {
      MM_ASSERT_MSG(owner(), "publish() on a non-owning lease");
      Ptr shared = cache_->publish(key_, std::move(value));
      cache_ = nullptr;  // a publish that threw leaves this lease to abandon
      return shared;
    }

   private:
    friend class OnceCache;
    Lease(OnceCache* cache, std::string key, Ptr data)
        : cache_(cache), key_(std::move(key)), data_(std::move(data)) {}

    OnceCache* cache_ = nullptr;  // set only on an owner lease
    std::string key_;
    Ptr data_;
  };

  // byte_budget 0 = unbounded.
  OnceCache(const std::string& metric_prefix, SizeOf size_of,
            std::size_t byte_budget = 0, Registry* registry = nullptr)
      : size_of_(size_of), byte_budget_(byte_budget) {
    if (registry == nullptr) return;
    const auto counter = [&](const char* stat) {
      return &registry->counter(metric_prefix + "." + stat);
    };
    mirror_ = {counter("hits"),     counter("misses"),   counter("waits"),
               counter("computes"), counter("abandons"), counter("evictions"),
               &registry->gauge(metric_prefix + ".bytes"),
               &registry->gauge(metric_prefix + ".days")};
  }

  Lease acquire(const std::string& key) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        entries_.emplace(key, Entry{});
        count_locked(&Stats::misses, &Mirror::misses);
        return Lease(this, key, nullptr);
      }
      if (it->second.data != nullptr) {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        count_locked(&Stats::hits, &Mirror::hits);
        return Lease(nullptr, {}, it->second.data);
      }
      count_locked(&Stats::waits, &Mirror::waits);
      // Re-check from the top once the value is published or the owner
      // abandoned (entry gone). If a successor owner re-created the entry
      // before this waiter woke, the value is still being computed and the
      // waiter keeps waiting.
      ready_cv_.wait(lock, [&] {
        const auto cur = entries_.find(key);
        return cur == entries_.end() || cur->second.data != nullptr;
      });
    }
  }

  // Non-blocking lookup; null when absent or still being computed.
  Ptr peek(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it != entries_.end() ? it->second.data : nullptr;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  // Resident bytes of the published values.
  std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  // Published values (a key still being computed is not an entry yet).
  std::size_t entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }

  OnceCache(const OnceCache&) = delete;
  OnceCache& operator=(const OnceCache&) = delete;

 private:
  struct Entry {
    Ptr data;  // null while the owner computes
    std::size_t bytes = 0;
    typename std::list<std::string>::iterator lru;  // valid once published
  };

  struct Mirror {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* waits = nullptr;
    Counter* computes = nullptr;
    Counter* abandons = nullptr;
    Counter* evictions = nullptr;
    Gauge* bytes = nullptr;
    Gauge* days = nullptr;
  };

  Ptr publish(const std::string& key, V value) {
    Ptr shared = std::make_shared<const V>(std::move(value));
    const std::size_t size = size_of_(*shared);
    std::lock_guard<std::mutex> lock(mutex_);
    // Only the owner erases an unpublished entry, and eviction walks only
    // published ones, so the owner's entry is still here.
    auto it = entries_.find(key);
    MM_ASSERT_MSG(it != entries_.end() && it->second.data == nullptr,
                  "publish without an owned entry");
    lru_.push_front(key);
    it->second.data = shared;
    it->second.bytes = size;
    it->second.lru = lru_.begin();
    bytes_ += size;
    count_locked(&Stats::computes, &Mirror::computes);
    evict_locked();
    if (mirror_.bytes != nullptr) {
      mirror_.bytes->set(static_cast<std::int64_t>(bytes_));
      mirror_.days->set(static_cast<std::int64_t>(lru_.size()));
    }
    ready_cv_.notify_all();
    return shared;
  }

  void abandon(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(key);
    count_locked(&Stats::abandons, &Mirror::abandons);
    ready_cv_.notify_all();
  }

  void evict_locked() {
    if (byte_budget_ == 0) return;
    // Never evict the newest entry: the value just published must survive
    // its own publication even when it alone exceeds the budget.
    while (bytes_ > byte_budget_ && lru_.size() > 1) {
      const auto victim = entries_.find(lru_.back());
      bytes_ -= victim->second.bytes;
      entries_.erase(victim);
      lru_.pop_back();
      count_locked(&Stats::evictions, &Mirror::evictions);
    }
  }

  void count_locked(std::uint64_t Stats::*stat, Counter* Mirror::*counter) {
    ++(stats_.*stat);
    if (Counter* c = mirror_.*counter; c != nullptr) c->add();
  }

  const SizeOf size_of_;
  const std::size_t byte_budget_;
  Mirror mirror_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // published keys, front = most recently used
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace mm::obs
