// mm::obs periodic snapshots — registry deltas on a cadence, rates derived
// from consecutive deltas.
//
// A SnapshotScheduler thread snapshots a Registry every `period` into a small
// ring of timestamped frames. Consecutive frames give delta counters over a
// known wall-time window, i.e. live rates (msgs/s, frames/s) and windowed
// latency quantiles (p95 of the last period's step histogram delta) — the
// numbers an operator needs DURING the day, which the end-of-run snapshot
// cannot provide. The ring doubles as the flight recorder's short-term
// memory: the last K frames ship in every postmortem bundle.
//
// All reads and writes are cold-path (registry aggregation under its own
// mutex, ring under a mutex); nothing here touches the metric hot path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <vector>

#include "obs/registry.hpp"

namespace mm::obs {

struct SnapshotFrame {
  std::int64_t t_ns = 0;  // monitor clock (now_ns) at capture
  Snapshot snap;
};

// Live rates between the ring's two newest frames (zeros until two exist).
struct RateSample {
  std::int64_t t_ns = 0;   // newest frame's capture time
  std::int64_t dt_ns = 0;  // window between the two frames
  double msgs_per_s = 0.0;     // mpmini.recv.messages rate
  double bytes_per_s = 0.0;    // mpmini.recv.bytes rate
  double frames_per_s = 0.0;   // sum of dag *.frames_in counters rate
  double p50_step_ns = 0.0;    // quantiles of the step histogram's delta
  double p95_step_ns = 0.0;
  double p99_step_ns = 0.0;
};

// Fixed-capacity ring of frames; push overwrites the oldest (unlike the
// trace ring, the NEWEST snapshots are the ones a postmortem needs).
class SnapshotRing {
 public:
  explicit SnapshotRing(std::size_t capacity);

  void push(SnapshotFrame frame);
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  // Oldest -> newest copies of the last `k` frames (all when k == 0).
  std::vector<SnapshotFrame> last(std::size_t k = 0) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SnapshotFrame> frames_;  // ring storage
  std::size_t next_ = 0;               // next write position
  std::size_t count_ = 0;              // frames ever pushed (saturates)
};

class SnapshotScheduler {
 public:
  struct Config {
    std::chrono::nanoseconds period{std::chrono::milliseconds{250}};
  };

  SnapshotScheduler(const Registry& registry, Config config);
  ~SnapshotScheduler();

  void start();
  void stop();

  // Capture one frame now (also what the background thread does each period).
  void tick();

  RateSample rates() const;
  std::vector<SnapshotFrame> frames(std::size_t k = 0) const { return ring_.last(k); }
  const Config& config() const { return config_; }

 private:
  const Registry& registry_;
  Config config_;
  SnapshotRing ring_;
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
};

}  // namespace mm::obs
