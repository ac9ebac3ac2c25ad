// mm::obs heartbeats — push-based liveness for mpmini rank threads.
//
// Replaces O(pump-deadline) failure discovery with O(heartbeat-interval)
// detection, following the runtime-attached monitoring model of MPI stream
// pipelines: every rank PUBLISHES a sequence number and a monitor thread
// OBSERVES it. The split keeps the publish side off the hot path:
//
//   * a beat is ONE relaxed store of a pre-incremented local sequence into
//     the rank's cache-line-aligned board slot — no clock read, no RMW, no
//     lock (each slot is single-writer by construction);
//   * the monitor owns every clock read: a rank whose sequence advanced since
//     the last scan is `up`; one that has been silent past the suspect/dead
//     thresholds degrades to `suspect` and then `down`.
//
// Beats are published from the transport's operation hook (every send/recv
// initiation) AND from inside the mailbox's blocking waits, which wake every
// interval to beat — so an idle-but-alive rank (blocked in recv with no
// traffic) keeps beating and is never suspected, while a rank killed by the
// fault plan goes silent and is detected within O(interval). A rank that
// finishes its day cleanly retires its slot, which the monitor reports as
// `done`, never `down`.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mm::obs {

// Liveness verdicts, ordered by increasing alarm.
enum class Liveness : std::uint8_t { up, suspect, down, done };
const char* liveness_name(Liveness state);

// One rank's health as maintained by the monitor (cold-side plain data).
struct RankHealth {
  Liveness state = Liveness::up;
  std::uint64_t seq = 0;          // last observed sequence number
  std::int64_t last_seen_ns = 0;  // monitor clock when seq last advanced
  std::int64_t detected_ns = 0;   // monitor clock when `down` was declared
  std::uint32_t missed_scans = 0; // consecutive scans without an advance
};

// Shared heartbeat slots, one cache line per rank. Created by the run harness
// before rank threads start; each slot is written only by its own rank thread
// and read by the monitor.
class HeartbeatBoard {
 public:
  explicit HeartbeatBoard(int ranks);
  int size() const { return ranks_; }

  std::uint64_t seq(int rank) const;
  bool retired(int rank) const;
  void retire(int rank);
  std::atomic<std::uint64_t>* slot(int rank);

  HeartbeatBoard(const HeartbeatBoard&) = delete;
  HeartbeatBoard& operator=(const HeartbeatBoard&) = delete;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint8_t> retired{0};
  };
  int ranks_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

// Thread-local publish state. Armed once per rank thread by PulseGuard; the
// transport and mailbox then call beat() through pulse_this_thread() without
// knowing whether heartbeats are on (unarmed beat = one branch).
struct Pulse {
  std::atomic<std::uint64_t>* slot = nullptr;
  std::uint64_t next = 1;
  std::int64_t interval_ns = 0;
  bool dead = false;  // fault-plan kill: beats stop, slot is never retired

  bool armed() const noexcept { return slot != nullptr; }
  std::chrono::nanoseconds interval() const noexcept {
    return std::chrono::nanoseconds{interval_ns};
  }
  // The heartbeat: a single relaxed store (slots are single-writer).
  void beat() noexcept {
    if (slot != nullptr) slot->store(next++, std::memory_order_relaxed);
  }
  // Model a dead rank: no further beats, and PulseGuard::retire() becomes a
  // no-op so the monitor sees silence, not a clean shutdown.
  void mark_dead() noexcept {
    dead = true;
    slot = nullptr;
  }
};

Pulse& pulse_this_thread() noexcept;

// RAII arm/disarm of the calling thread's pulse. The run harness creates one
// per rank thread; retire() is called on clean completion only (a killed
// rank's guard sees the dead mark and leaves the slot unretired).
class PulseGuard {
 public:
  PulseGuard(HeartbeatBoard* board, int rank, std::chrono::nanoseconds interval);
  ~PulseGuard();
  void retire();

  PulseGuard(const PulseGuard&) = delete;
  PulseGuard& operator=(const PulseGuard&) = delete;

 private:
  HeartbeatBoard* board_ = nullptr;
  int rank_ = -1;
};

// The observer side: scans the board and maintains per-rank liveness. scan()
// is public and takes the scan time explicitly, so liveness transitions are
// unit-testable with a synthetic clock; start() runs scans on a background
// thread every `scan_period` of wall time.
class HeartbeatMonitor {
 public:
  struct Config {
    std::chrono::nanoseconds interval{std::chrono::milliseconds{100}};
    double suspect_after = 1.0;  // x interval of silence -> suspect
    double dead_after = 1.5;     // x interval of silence -> down
    std::chrono::nanoseconds scan_period{0};  // 0 = interval / 8
  };

  HeartbeatMonitor(const HeartbeatBoard& board, Config config);
  ~HeartbeatMonitor();

  void start();
  void stop();

  // One scan at time `now_ns` (monitor clock). Thread-safe.
  void scan(std::int64_t now_ns);

  // Block until every rank is `done` or `down` (beats have stopped once the
  // run is over, so this converges within dead_after x interval). Scans are
  // driven by the caller if the background thread is not running. Returns the
  // number of `down` ranks.
  int settle();

  RankHealth health(int rank) const;
  std::vector<RankHealth> all() const;
  std::vector<int> dead_ranks() const;
  const Config& config() const { return config_; }
  std::chrono::nanoseconds scan_period() const;

  // Invoked from within scan() on the transition to `down` (monitor thread
  // when start()ed). Set before start().
  std::function<void(int rank, const RankHealth&)> on_dead;

 private:
  const HeartbeatBoard& board_;
  Config config_;
  mutable std::mutex mutex_;
  std::vector<RankHealth> health_;
  bool seeded_ = false;  // first scan initializes last_seen
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
};

}  // namespace mm::obs
