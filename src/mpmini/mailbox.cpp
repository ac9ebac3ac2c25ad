#include "mpmini/mailbox.hpp"

#include "common/error.hpp"
#include "mpmini/wait.hpp"
#include "obs/heartbeat.hpp"

namespace mm::mpi {

using Clock = std::chrono::steady_clock;

namespace {
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
}  // namespace

Mailbox::Mailbox() = default;

Mailbox::~Mailbox() {
  // Queued envelopes live in pool blocks, which release themselves; pending
  // tickets live on their receivers' stacks.
  for (int s = 0; s < lane_count_; ++s)
    delete lanes_[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
}

void Mailbox::init_lanes(int world_size) {
  MM_ASSERT(world_size > 0 && lane_count_ == 0);
  lanes_ = std::make_unique<std::atomic<Lane*>[]>(static_cast<std::size_t>(world_size));
  for (int s = 0; s < world_size; ++s)
    lanes_[static_cast<std::size_t>(s)].store(nullptr, std::memory_order_relaxed);
  lane_count_ = world_size;
}

Lane& Mailbox::lane_for_sender(int source_world_rank) {
  MM_ASSERT(source_world_rank >= 0 && source_world_rank < lane_count_);
  auto& slot = lanes_[static_cast<std::size_t>(source_world_rank)];
  // The slot is written only by `source_world_rank`'s single sending thread
  // (the ring-mode precondition, see the Comm docs), so a plain
  // check-then-create needs no CAS. The store publishes the lane to the
  // draining side; it is seq_cst so that a waiter's post-park drain, whose
  // slot loads are seq_cst too, sees a lane created before the first push it
  // must not miss (see notify_ring_push).
  Lane* lane = slot.load(std::memory_order_relaxed);
  if (lane == nullptr) {
    lane = new Lane(lane_capacity, ring_peak_);
#ifndef NDEBUG
    lane->producer = std::this_thread::get_id();
#endif
    slot.store(lane, std::memory_order_seq_cst);
  }
#ifndef NDEBUG
  // A second sending thread on the same world rank would corrupt the SPSC
  // ring silently; fail loudly in debug builds instead.
  MM_ASSERT_MSG(lane->producer == std::this_thread::get_id(),
                "ring transport: a world rank must send from a single thread "
                "(use MM_MPMINI_TRANSPORT=locked for multi-threaded senders)");
#endif
  return *lane;
}

void Mailbox::set_obs(obs::Gauge* queue_peak, obs::Gauge* ring_depth_peak) {
  queue_peak_ = queue_peak;
  ring_peak_ = ring_depth_peak;
  // Contract: called before traffic starts, so touching lanes is safe.
  for (int s = 0; s < lane_count_; ++s) {
    Lane* lane = lanes_[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
    if (lane != nullptr) lane->depth_peak = ring_depth_peak;
  }
}

// --- intrusive list plumbing (mutex_ held) ---------------------------------

void Mailbox::pending_push_locked(RecvTicket* t) {
  t->prev = pending_tail_;
  t->next = nullptr;
  if (pending_tail_ != nullptr)
    pending_tail_->next = t;
  else
    pending_head_ = t;
  pending_tail_ = t;
}

void Mailbox::pending_unlink_locked(RecvTicket* t) {
  if (t->prev != nullptr)
    t->prev->next = t->next;
  else
    pending_head_ = t->next;
  if (t->next != nullptr)
    t->next->prev = t->prev;
  else
    pending_tail_ = t->prev;
  t->prev = nullptr;
  t->next = nullptr;
}

void Mailbox::queue_push_locked(Envelope* e) {
  e->prev = queue_tail_;
  e->next = nullptr;
  if (queue_tail_ != nullptr)
    queue_tail_->next = e;
  else
    queue_head_ = e;
  queue_tail_ = e;
  ++queue_size_;
  if (queue_peak_ != nullptr)
    queue_peak_->max_of(static_cast<std::int64_t>(queue_size_));
}

void Mailbox::queue_unlink_locked(Envelope* e) {
  if (e->prev != nullptr)
    e->prev->next = e->next;
  else
    queue_head_ = e->next;
  if (e->next != nullptr)
    e->next->prev = e->prev;
  else
    queue_tail_ = e->prev;
  e->prev = nullptr;
  e->next = nullptr;
  --queue_size_;
}

// --- matching core (mutex_ held) -------------------------------------------

void Mailbox::complete_locked(RecvTicket* t, Message&& msg) {
  pending_unlink_locked(t);
  t->message = std::move(msg);
  // block_on's spin phase reads `done` without the mutex, so the moment this
  // store lands the ticket's stack frame may be gone: it must be the last
  // touch of *t.
  t->done.store(true, std::memory_order_release);
}

void Mailbox::absorb_locked(Message&& msg) {
  // Earliest-posted matching receive wins.
  for (RecvTicket* t = pending_head_; t != nullptr; t = t->next) {
    if (matches(*t, msg)) {
      complete_locked(t, std::move(msg));
      return;
    }
  }
  Envelope* e = pool_.acquire();
  e->msg = std::move(msg);
  queue_push_locked(e);
}

bool Mailbox::drain_locked() {
  // Every slot and, through try_pop, every existing lane's tail is read
  // seq_cst: after a waiter's parked_ increment this drain is the re-check
  // of the park handshake (see notify_ring_push).
  bool any = false;
  for (int s = 0; s < lane_count_; ++s) {
    Lane* lane = lanes_[static_cast<std::size_t>(s)].load(std::memory_order_seq_cst);
    if (lane == nullptr) continue;
    Message msg;
    while (lane->ring.try_pop(msg)) {
      absorb_locked(std::move(msg));
      any = true;
    }
    lane->note_depth();
  }
  return any;
}

Envelope* Mailbox::find_match_locked(const RecvTicket& ticket) {
  // Earliest-arrived matching message wins.
  for (Envelope* e = queue_head_; e != nullptr; e = e->next) {
    if (matches(ticket, e->msg)) return e;
  }
  return nullptr;
}

Message Mailbox::take_locked(Envelope* e) {
  Message msg = std::move(e->msg);
  queue_unlink_locked(e);
  pool_.release(e);
  return msg;
}

bool Mailbox::lanes_nonempty() const noexcept {
  for (int s = 0; s < lane_count_; ++s) {
    const Lane* lane =
        lanes_[static_cast<std::size_t>(s)].load(std::memory_order_acquire);
    if (lane != nullptr && !lane->ring.empty()) return true;
  }
  return false;
}

// --- delivery ---------------------------------------------------------------

void Mailbox::deliver(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Drain first: if this is the ring-overflow fallback, the sender's own
    // lane backlog must be absorbed ahead of this message to preserve
    // per-(source, comm) FIFO order.
    drain_locked();
    absorb_locked(std::move(msg));
  }
  cv_.notify_all();  // wake waiters (the locked path is always loud)
}

void Mailbox::notify_ring_push() noexcept {
  // Eventcount publish side, a Dekker handshake in the seq_cst total order:
  // the push stored the ring tail seq_cst, this loads parked_ seq_cst; a
  // waiter increments parked_ seq_cst and then re-drains, reading every lane
  // slot and tail seq_cst. If this load misses the increment, it precedes it
  // in the total order, so the tail store does too and the re-drain sees the
  // message; if it sees it, the waiter is parked or about to re-drain under
  // the mutex, and the wake below reaches it. The hot case (nobody parked)
  // costs the tail store and this one load.
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }
}

// --- blocking core ----------------------------------------------------------

// Wait until `t` completes or `deadline` passes (kNoDeadline = never).
// Bounded spin over the ticket flag and the lane rings first; then the
// eventcount park on cv_, chunked by the heartbeat interval when armed.
bool Mailbox::block_on(RecvTicket& t, Clock::time_point deadline) {
  obs::Pulse& pulse = obs::pulse_this_thread();
  const SpinPolicy& sp = spin_policy();
  if (lane_count_ > 0) {
    for (std::uint32_t i = 0; i < sp.iterations; ++i) {
      if (t.done.load(std::memory_order_acquire)) return true;
      if (lanes_nonempty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (drain_locked() && parked_.load(std::memory_order_relaxed) > 0)
          cv_.notify_all();
      } else {
        spin_relax(sp, i);
      }
      if ((i & 63u) == 0) {
        pulse.beat();  // a long spin must not look like silence
        if (deadline != kNoDeadline && Clock::now() >= deadline) break;
      }
    }
    if (t.done.load(std::memory_order_acquire)) return true;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (drain_locked() && parked_.load(std::memory_order_relaxed) > 0)
      cv_.notify_all();
    if (t.done.load(std::memory_order_relaxed)) return true;
    const auto now = Clock::now();
    if (now >= deadline) {
      // The drain above was the post-deadline scan: a completion racing the
      // deadline has already been honored.
      return false;
    }
    parked_.fetch_add(1, std::memory_order_seq_cst);
    // Close the publish/park race: a ring push that missed our parked flag
    // is picked up by this re-drain before we sleep.
    if (drain_locked() && parked_.load(std::memory_order_relaxed) > 1)
      cv_.notify_all();
    if (t.done.load(std::memory_order_relaxed)) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    auto target = deadline;
    if (pulse.armed()) {
      // Chunk the sleep into heartbeat intervals: an idle-but-alive rank
      // blocked here keeps beating and is never suspected.
      const auto chunk = now + pulse.interval();
      if (chunk < target) target = chunk;
    }
    if (target == kNoDeadline)
      cv_.wait(lock);
    else
      cv_.wait_until(lock, target);
    parked_.fetch_sub(1, std::memory_order_relaxed);
    pulse.beat();
  }
}

// --- receives ---------------------------------------------------------------

Message Mailbox::receive(std::uint64_t comm_id, int source, int tag) {
  Message msg;
  // A blocking receive cannot time out.
  const bool received = receive_for(comm_id, source, tag,
                                    std::chrono::nanoseconds::max(), &msg);
  MM_ASSERT(received);
  return msg;
}

bool Mailbox::receive_for(std::uint64_t comm_id, int source, int tag,
                          std::chrono::nanoseconds timeout, Message* out) {
  RecvTicket t;  // stack ticket: zero allocation on the hot path
  t.comm_id = comm_id;
  t.source = source;
  t.tag = tag;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drain_locked() && parked_.load(std::memory_order_relaxed) > 0)
      cv_.notify_all();
    if (Envelope* e = find_match_locked(t); e != nullptr) {
      *out = take_locked(e);
      return true;
    }
    pending_push_locked(&t);
  }
  const auto deadline = (timeout == std::chrono::nanoseconds::max())
                            ? kNoDeadline
                            : Clock::now() + timeout;
  if (block_on(t, deadline)) {
    *out = std::move(t.message);
    return true;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (t.done.load(std::memory_order_relaxed)) {
    // Completion raced the timeout: the message is ours, not requeued.
    *out = std::move(t.message);
    return true;
  }
  pending_unlink_locked(&t);  // the stack ticket must not outlive this frame
  return false;
}

std::size_t Mailbox::queued() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (drain_locked() && parked_.load(std::memory_order_relaxed) > 0)
    cv_.notify_all();
  return queue_size_;
}

}  // namespace mm::mpi
