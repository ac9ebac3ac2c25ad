#include "obs/heartbeat.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"  // now_ns

namespace mm::obs {

const char* liveness_name(Liveness state) {
  switch (state) {
    case Liveness::up: return "up";
    case Liveness::suspect: return "suspect";
    case Liveness::down: return "down";
    case Liveness::done: return "done";
  }
  return "unknown";
}

HeartbeatBoard::HeartbeatBoard(int ranks) : ranks_(ranks) {
  MM_ASSERT_MSG(ranks > 0, "heartbeat board needs at least one rank");
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(ranks));
}

std::uint64_t HeartbeatBoard::seq(int rank) const {
  MM_ASSERT(rank >= 0 && rank < ranks_);
  return slots_[static_cast<std::size_t>(rank)].seq.load(std::memory_order_relaxed);
}

bool HeartbeatBoard::retired(int rank) const {
  MM_ASSERT(rank >= 0 && rank < ranks_);
  return slots_[static_cast<std::size_t>(rank)].retired.load(
             std::memory_order_relaxed) != 0;
}

void HeartbeatBoard::retire(int rank) {
  MM_ASSERT(rank >= 0 && rank < ranks_);
  slots_[static_cast<std::size_t>(rank)].retired.store(1, std::memory_order_relaxed);
}

std::atomic<std::uint64_t>* HeartbeatBoard::slot(int rank) {
  MM_ASSERT(rank >= 0 && rank < ranks_);
  return &slots_[static_cast<std::size_t>(rank)].seq;
}

Pulse& pulse_this_thread() noexcept {
  static thread_local Pulse pulse;
  return pulse;
}

PulseGuard::PulseGuard(HeartbeatBoard* board, int rank,
                       std::chrono::nanoseconds interval)
    : board_(board), rank_(rank) {
  if (board_ == nullptr) return;
  Pulse& pulse = pulse_this_thread();
  pulse.slot = board_->slot(rank_);
  pulse.next = 1;
  pulse.interval_ns = interval.count() > 0
                          ? interval.count()
                          : std::chrono::nanoseconds{std::chrono::milliseconds{100}}
                                .count();
  pulse.dead = false;
  pulse.beat();  // visible from the first scan on
}

PulseGuard::~PulseGuard() {
  if (board_ == nullptr) return;
  Pulse& pulse = pulse_this_thread();
  pulse.slot = nullptr;
  pulse.dead = false;
}

void PulseGuard::retire() {
  if (board_ == nullptr) return;
  if (pulse_this_thread().dead) return;  // killed ranks go silent, not retired
  board_->retire(rank_);
}

HeartbeatMonitor::HeartbeatMonitor(const HeartbeatBoard& board, Config config)
    : board_(board), config_(config) {
  MM_ASSERT_MSG(config_.interval.count() > 0, "heartbeat interval must be positive");
  MM_ASSERT_MSG(config_.dead_after >= config_.suspect_after,
                "dead_after must not precede suspect_after");
  health_.resize(static_cast<std::size_t>(board_.size()));
}

HeartbeatMonitor::~HeartbeatMonitor() { stop(); }

std::chrono::nanoseconds HeartbeatMonitor::scan_period() const {
  if (config_.scan_period.count() > 0) return config_.scan_period;
  return std::chrono::nanoseconds{config_.interval.count() / 8 + 1};
}

void HeartbeatMonitor::start() {
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] {
    const auto period = scan_period();
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stopping_) {
      lock.unlock();
      scan(now_ns());
      lock.lock();
      stop_cv_.wait_for(lock, period, [this] { return stopping_; });
    }
  });
}

void HeartbeatMonitor::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HeartbeatMonitor::scan(std::int64_t now) {
  std::vector<std::pair<int, RankHealth>> deaths;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!seeded_) {
      for (auto& h : health_) h.last_seen_ns = now;
      seeded_ = true;
    }
    const double interval = static_cast<double>(config_.interval.count());
    for (int r = 0; r < board_.size(); ++r) {
      RankHealth& h = health_[static_cast<std::size_t>(r)];
      if (h.state == Liveness::done) continue;
      const std::uint64_t cur = board_.seq(r);
      if (cur != h.seq) {
        h.seq = cur;
        h.last_seen_ns = now;
        h.missed_scans = 0;
        if (h.state != Liveness::down) h.state = Liveness::up;
        continue;
      }
      if (board_.retired(r)) {
        // Retirement outranks silence: a finished rank is done, never down.
        h.state = Liveness::done;
        continue;
      }
      ++h.missed_scans;
      if (h.state == Liveness::down) continue;
      const double silent = static_cast<double>(now - h.last_seen_ns);
      if (silent > config_.dead_after * interval) {
        h.state = Liveness::down;
        h.detected_ns = now;
        if (on_dead) deaths.emplace_back(r, h);
      } else if (silent > config_.suspect_after * interval) {
        h.state = Liveness::suspect;
      }
    }
  }
  for (const auto& [rank, health] : deaths) on_dead(rank, health);
}

int HeartbeatMonitor::settle() {
  const bool self_drive = !thread_.joinable();
  const auto period = scan_period();
  // Beats have stopped (or keep coming) — either way every rank converges to
  // done/down/up within dead_after x interval; poll until no rank is in a
  // transient state, bounded by 2 x dead_after for safety.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds{static_cast<std::int64_t>(
          2.0 * config_.dead_after * static_cast<double>(config_.interval.count()))} +
      4 * period;
  while (true) {
    if (self_drive) scan(now_ns());
    bool transient = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& h : health_)
        if (h.state == Liveness::up || h.state == Liveness::suspect) transient = true;
    }
    if (!transient || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(period);
  }
  return static_cast<int>(dead_ranks().size());
}

RankHealth HeartbeatMonitor::health(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MM_ASSERT(rank >= 0 && rank < static_cast<int>(health_.size()));
  return health_[static_cast<std::size_t>(rank)];
}

std::vector<RankHealth> HeartbeatMonitor::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

std::vector<int> HeartbeatMonitor::dead_ranks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (std::size_t r = 0; r < health_.size(); ++r)
    if (health_[r].state == Liveness::down) out.push_back(static_cast<int>(r));
  return out;
}

}  // namespace mm::obs
