// Memoized correlation store: compute each (day, universe, estimator,
// ∆s, M) correlation stream once, serve every later backtest from memory.
//
// The unit of memoization is a whole day of packed CorrFrames — exactly the
// bytes the correlation stage emits, one buffer per snapshot interval. A
// consumer on the hit path replays those buffers verbatim, so its strategies
// see BIT-IDENTICAL input to a cold run (no re-estimation, no
// re-serialization, no float drift). This is what lets the backtest service
// (src/svc) run many tenants' parameter sweeps over a shared day for the
// price of one correlation pass: the sweep dimensions that matter
// (divergence, thresholds, ctype selection among the stored measures) all
// live DOWNSTREAM of the frame stream.
//
// CorrStore is a typed front over obs::OnceCache (see obs/once_cache.hpp
// for the once-flag contract): it keys days by CorrKey::cache_key(), charges
// CorrDay::bytes() against the budget and reports corr_store.* metrics.
// Published days are immutable, so eviction never touches a replay in
// flight.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/once_cache.hpp"
#include "obs/registry.hpp"

namespace mm::stats {

// Identity of one memoized correlation day. `universe` is any canonical
// fingerprint of the symbol set + data source (the service uses
// "synthetic/<n>/<seed>"); two keys with different fingerprints never share.
// Callers aggregate-initialize the first five members, so later members keep
// a default member initializer (which also spares them the
// missing-initializer warning).
struct CorrKey {
  std::string universe;
  std::int32_t date = 0;  // yyyymmdd
  std::int64_t delta_s = 0;
  std::int64_t window = 0;
  std::string estimator;  // "pearson" or "pearson+maronna"
  // Fingerprint of the cleaner and Maronna configs that shaped the frames.
  // engine::run_pipeline stamps it (engine::stamped_corr_key); callers leave
  // it empty.
  std::string frames_config{};

  // Canonical map key; also the human-readable identity in logs/metrics.
  std::string cache_key() const;
};

// One day of packed CorrFrames in emission order (frames[i] = interval i).
struct CorrDay {
  std::vector<std::vector<std::uint8_t>> frames;

  std::size_t bytes() const {
    std::size_t total = sizeof(CorrDay);
    for (const auto& f : frames) total += f.size() + sizeof(f);
    return total;
  }
};

class CorrStore : public obs::OnceCache<CorrDay> {
 public:
  // byte_budget 0 = unbounded. `registry` mirrors the stats as corr_store.*
  // counters and gauges.
  explicit CorrStore(std::size_t byte_budget = 0,
                     obs::Registry* registry = nullptr)
      : OnceCache("corr_store", [](const CorrDay& day) { return day.bytes(); },
                  byte_budget, registry) {}

  Lease acquire(const CorrKey& key) { return OnceCache::acquire(key.cache_key()); }
  Ptr peek(const CorrKey& key) const { return OnceCache::peek(key.cache_key()); }
};

}  // namespace mm::stats
