#include "obs/registry.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace mm::obs {

std::vector<std::int64_t> default_latency_bounds_ns() {
  std::vector<std::int64_t> bounds;
  bounds.reserve(12);
  std::int64_t bound = 1'000;  // 1 µs
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(bound);
    bound *= 4;
  }
  return bounds;  // last bound ≈ 4.3 s
}

double MetricValue::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  if (bounds.empty() || buckets.size() != bounds.size() + 1) return mean();
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cumulative + in_bucket < rank || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (i == buckets.size() - 1)  // overflow: pinned to the last finite bound
      return static_cast<double>(bounds.back());
    const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double hi = static_cast<double>(bounds[i]);
    return lo + (hi - lo) * ((rank - cumulative) / in_bucket);
  }
  return static_cast<double>(bounds.back());
}

Snapshot Snapshot::delta(const Snapshot& base) const {
  Snapshot out = *this;
  for (auto& m : out.metrics) {
    if (m.kind == MetricKind::gauge) continue;  // levels: current value stands
    const MetricValue* prev = base.find(m.name);
    if (prev == nullptr || prev->kind != m.kind) continue;
    if (m.kind == MetricKind::counter) {
      m.value = m.value >= prev->value ? m.value - prev->value : m.value;
      continue;
    }
    // Histogram: subtract only when the bucket layout matches (it always does
    // for one registry; a re-registered histogram with new bounds passes
    // through unchanged).
    if (prev->bounds != m.bounds || prev->buckets.size() != m.buckets.size())
      continue;
    if (prev->count > m.count) continue;  // reset in between: keep current
    m.count -= prev->count;
    m.sum -= prev->sum;
    for (std::size_t i = 0; i < m.buckets.size(); ++i)
      m.buckets[i] -= std::min(m.buckets[i], prev->buckets[i]);
  }
  return out;
}

const MetricValue* Snapshot::find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::int64_t Snapshot::counter_total(const std::string& prefix) const {
  std::int64_t total = 0;
  for (const auto& m : metrics)
    if (m.kind == MetricKind::counter && m.name.rfind(prefix, 0) == 0)
      total += m.value;
  return total;
}

std::int64_t Snapshot::counter_suffix_total(const std::string& suffix) const {
  std::int64_t total = 0;
  for (const auto& m : metrics) {
    if (m.kind != MetricKind::counter || m.name.size() < suffix.size()) continue;
    if (m.name.compare(m.name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += m.value;
  }
  return total;
}

std::string Snapshot::to_string() const {
  std::string out;
  for (const auto& m : metrics) {
    switch (m.kind) {
      case MetricKind::counter:
        out += format("%-48s counter   %lld\n", m.name.c_str(),
                      static_cast<long long>(m.value));
        break;
      case MetricKind::gauge:
        out += format("%-48s gauge     %lld\n", m.name.c_str(),
                      static_cast<long long>(m.value));
        break;
      case MetricKind::histogram:
        out += format(
            "%-48s histogram count=%llu mean=%.0f p50=%.0f p95=%.0f p99=%.0f "
            "sum=%lld\n",
            m.name.c_str(), static_cast<unsigned long long>(m.count), m.mean(),
            m.quantile(0.50), m.quantile(0.95), m.quantile(0.99),
            static_cast<long long>(m.sum));
        break;
    }
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& m : metrics) {
    if (!first) out += ",";
    first = false;
    const char* kind = m.kind == MetricKind::counter  ? "counter"
                       : m.kind == MetricKind::gauge  ? "gauge"
                                                      : "histogram";
    // Names can carry a label block ({tenant="x"}) whose quotes must be
    // escaped for the JSON to stay parseable.
    out += format("{\"name\":\"%s\",\"kind\":\"%s\"", json::escape(m.name).c_str(),
                  kind);
    if (m.kind == MetricKind::histogram) {
      out += format(",\"count\":%llu,\"sum\":%lld,\"p50\":%.1f,\"p95\":%.1f,"
                    "\"p99\":%.1f,\"bounds\":[",
                    static_cast<unsigned long long>(m.count),
                    static_cast<long long>(m.sum), m.quantile(0.50),
                    m.quantile(0.95), m.quantile(0.99));
      for (std::size_t i = 0; i < m.bounds.size(); ++i)
        out += format(i == 0 ? "%lld" : ",%lld", static_cast<long long>(m.bounds[i]));
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < m.buckets.size(); ++i)
        out += format(i == 0 ? "%llu" : ",%llu",
                      static_cast<unsigned long long>(m.buckets[i]));
      out += "]}";
    } else {
      out += format(",\"value\":%lld}", static_cast<long long>(m.value));
    }
  }
  out += "]}";
  return out;
}

Histogram::Histogram(std::vector<std::int64_t> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (bounds_[i - 1] >= bounds_[i])
      bounds_.clear();  // misdeclared bounds degrade to a single bucket
  // One cache line holds 8 atomics; pad each shard's row so shards never
  // share a line.
  stride_ = ((bucket_count() + 7) / 8) * 8;
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(kShardCount * stride_);
  for (std::size_t i = 0; i < kShardCount * stride_; ++i) counts_[i] = 0;
}

std::vector<std::uint64_t> Histogram::bucket_values() const {
  std::vector<std::uint64_t> out(bucket_count(), 0);
  for (std::size_t shard = 0; shard < kShardCount; ++shard)
    for (std::size_t b = 0; b < out.size(); ++b)
      out[b] += counts_[shard * stride_ + b].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto b : bucket_values()) total += b;
  return total;
}

std::int64_t Histogram::sum() const {
  std::int64_t total = 0;
  for (const auto& shard : sums_) total += shard.value.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i < kShardCount * stride_; ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  for (auto& shard : sums_) shard.value.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricKind::counter;
    m.value = static_cast<std::int64_t>(counter->value());
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricKind::gauge;
    m.value = gauge->value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricKind::histogram;
    m.count = hist->count();
    m.sum = hist->sum();
    m.bounds = hist->bounds();
    m.buckets = hist->bucket_values();
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace mm::obs
