#include "obs/snapshots.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"  // now_ns

namespace mm::obs {

SnapshotRing::SnapshotRing(std::size_t capacity) : capacity_(capacity) {
  MM_ASSERT_MSG(capacity > 0, "snapshot ring needs a positive capacity");
  frames_.resize(capacity_);
}

void SnapshotRing::push(SnapshotFrame frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  frames_[next_] = std::move(frame);
  next_ = (next_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

std::size_t SnapshotRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::vector<SnapshotFrame> SnapshotRing::last(std::size_t k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t take = (k == 0 || k > count_) ? count_ : k;
  std::vector<SnapshotFrame> out;
  out.reserve(take);
  // Oldest of the `take` newest sits take steps behind the write cursor.
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t idx = (next_ + capacity_ - take + i) % capacity_;
    out.push_back(frames_[idx]);
  }
  return out;
}

SnapshotScheduler::SnapshotScheduler(const Registry& registry, Config config)
    : registry_(registry), config_(config), ring_(config.ring_capacity) {
  MM_ASSERT_MSG(config_.period.count() > 0, "snapshot period must be positive");
}

SnapshotScheduler::~SnapshotScheduler() { stop(); }

void SnapshotScheduler::start() {
  if (thread_.joinable()) return;
  stopping_ = false;
  tick();  // frame zero: the baseline every later delta subtracts from
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stopping_) {
      if (stop_cv_.wait_for(lock, config_.period, [this] { return stopping_; }))
        break;
      lock.unlock();
      tick();
      lock.lock();
    }
  });
}

void SnapshotScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SnapshotScheduler::tick() {
  SnapshotFrame frame;
  frame.t_ns = now_ns();
  frame.snap = registry_.snapshot();
  ring_.push(std::move(frame));
}

RateSample SnapshotScheduler::rates() const {
  const auto newest = ring_.last(2);
  RateSample out;
  if (newest.size() < 2) return out;
  const SnapshotFrame& a = newest[0];
  const SnapshotFrame& b = newest[1];
  out.t_ns = b.t_ns;
  out.dt_ns = b.t_ns - a.t_ns;
  if (out.dt_ns <= 0) return out;
  const double dt_s = static_cast<double>(out.dt_ns) / 1e9;
  const Snapshot delta = b.snap.delta(a.snap);
  out.msgs_per_s =
      static_cast<double>(delta.counter_total("mpmini.recv.messages")) / dt_s;
  out.bytes_per_s =
      static_cast<double>(delta.counter_total("mpmini.recv.bytes")) / dt_s;
  out.frames_per_s =
      static_cast<double>(delta.counter_suffix_total(".frames_in")) / dt_s;
  if (const MetricValue* step = delta.find(config_.step_histogram);
      step != nullptr && step->kind == MetricKind::histogram && step->count > 0) {
    out.p50_step_ns = step->quantile(0.50);
    out.p95_step_ns = step->quantile(0.95);
    out.p99_step_ns = step->quantile(0.99);
  }
  return out;
}

}  // namespace mm::obs
