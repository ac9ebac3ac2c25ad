// Per-rank mailbox implementing MPI envelope matching over lock-free lanes.
//
// A mailbox holds messages delivered to one rank and the rank's posted
// (pending) receives. Matching rules follow MPI:
//   * a receive posted with (comm, source, tag) matches a message with the
//     same comm, and source/tag equal or wildcard (any_source / any_tag);
//   * among queued messages, the earliest-arrived match wins, which together
//     with per-lane FIFO delivery preserves per-(source, comm) non-overtaking;
//   * among posted receives, the earliest-posted match wins.
//
// Transport layout (ring mode, the default — see wait.hpp for the selector):
//
//   sender rank S ──SpscRing<Message>──▶ lane (S → R) ──drain──▶ Mailbox R
//
// Each (sender, receiver) world-rank pair owns one bounded SPSC ring (a
// "lane"), created lazily by the sender, who is its only producer. A send is
// a payload move into a ring slot plus one seq_cst store: senders never take
// the receiving mailbox's mutex, so concurrent senders to one rank do not
// contend with each other or with the receiver. The receiving side drains its
// lanes into the matching structures under the mailbox mutex — uncontended in
// the common one-thread-per-rank regime — so several threads may receive on
// one mailbox and each message still goes to exactly one of them. Messages that must queue are parked in
// pooled envelopes (pool.hpp): steady-state traffic performs no heap
// allocation anywhere in the transport.
//
// Waits are spin-then-park: a blocked receiver polls its ticket flag and its
// lanes through a bounded spin (pause, then yield), and only then parks on
// the condition variable after raising `parked_` — the eventcount handshake
// senders check (the seq_cst tail store + one load on the hot path) before
// paying for a wake. The legacy locked path (deliver()) remains both the overflow route
// for full rings and the whole transport in "locked" mode, which the bench
// uses as its before/after baseline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "mpmini/message.hpp"
#include "mpmini/pool.hpp"
#include "mpmini/ring.hpp"
#include "obs/registry.hpp"

namespace mm::mpi {

// Messages one lane holds before the sender overflows to the locked path.
inline constexpr std::size_t lane_capacity = 256;

// One sender's inbound ring plus its consumer-side depth watermark. Created
// by the sending thread on first use (its slot in the mailbox lane table is
// single-writer) and destroyed with the mailbox.
struct Lane {
  SpscRing<Message> ring;
  std::size_t depth_watermark = 0;   // consumer-owned (mailbox mutex)
  obs::Gauge* depth_peak = nullptr;  // shared high watermark (see set_obs)
#ifndef NDEBUG
  std::thread::id producer{};  // first sending thread; enforced per send
#endif

  explicit Lane(std::size_t capacity, obs::Gauge* gauge)
      : ring(capacity), depth_peak(gauge) {}

  // Consumer side, after a drain: publish the ring's depth peak (sampled
  // exactly by try_pop) when it grew. The shared gauge is only touched when
  // this lane's own maximum grows, and the send path pays nothing.
  void note_depth() {
    const std::size_t d = ring.depth_peak();
    if (d > depth_watermark) {
      depth_watermark = d;
      if (depth_peak != nullptr) depth_peak->max_of(static_cast<std::int64_t>(d));
    }
  }
};

// Completion state for one posted receive, living on the receiver's stack
// and threaded into the mailbox's intrusive pending list while posted.
// Mutation is guarded by the owning mailbox's mutex; `done` flips with
// release ordering so spin waiters can observe completion (and then read
// `message`) without the lock.
struct RecvTicket {
  std::uint64_t comm_id = 0;
  int source = any_source;
  int tag = any_tag;
  std::atomic<bool> done{false};
  Message message;

  RecvTicket* prev = nullptr;  // intrusive pending list (mailbox mutex)
  RecvTicket* next = nullptr;
};

class Mailbox {
 public:
  Mailbox();
  ~Mailbox();

  // --- transport wiring (called by World before traffic starts) ---------
  // Size the lane table: one inbound slot per world rank.
  void init_lanes(int world_size);

  // Producer side: the lane carrying `source_world_rank`'s traffic into this
  // mailbox, created on first use. Only that rank's thread may call this.
  Lane& lane_for_sender(int source_world_rank);

  // Producer side, after a ring push: wake this mailbox's parked waiters if
  // there are any (eventcount check — one load when nobody is parked, which
  // is the hot case).
  void notify_ring_push() noexcept;

  // --- delivery ---------------------------------------------------------
  // Deliver a message through the locked path: ring-overflow fallback,
  // "locked" transport mode, and direct use in tests. Drains this mailbox's
  // lanes first so a same-source message cannot overtake its ring backlog.
  void deliver(Message msg);

  // --- receives ---------------------------------------------------------
  // Blocking receive: receive_for without a deadline.
  Message receive(std::uint64_t comm_id, int source, int tag);

  // Deadline receive: stack ticket, spin-then-park wait, zero allocation.
  // The earliest-arrived queued or in-ring match is taken at once; otherwise
  // the ticket is posted and completes on a future delivery. True and *out
  // filled on success, false when the deadline passed with no match (nothing
  // stays posted afterwards); nanoseconds::max() waits forever.
  bool receive_for(std::uint64_t comm_id, int source, int tag,
                   std::chrono::nanoseconds timeout, Message* out);

  // Queued (drained but unreceived) messages, after absorbing any ring
  // backlog; for tests/stats.
  std::size_t queued();

  // Telemetry: `queue_peak` records the queued-message high watermark,
  // `ring_depth_peak` the per-lane ring depth high watermark (both shared
  // across the world's mailboxes). Set before traffic starts.
  void set_obs(obs::Gauge* queue_peak, obs::Gauge* ring_depth_peak = nullptr);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

 private:
  static bool matches(const RecvTicket& ticket, const Message& msg) {
    return ticket.comm_id == msg.comm_id &&
           (ticket.source == any_source || ticket.source == msg.source) &&
           (ticket.tag == any_tag || ticket.tag == msg.tag);
  }

  // All private helpers below require mutex_ unless noted otherwise.

  // Pop every lane ring into the matching structures. Returns true if any
  // message was absorbed (callers wake parked waiters when so).
  bool drain_locked();
  // Match `msg` against the earliest posted receive, else queue it.
  void absorb_locked(Message&& msg);
  // Complete `t` with `msg`: unlink, fill, flip done (release).
  void complete_locked(RecvTicket* t, Message&& msg);
  // Earliest queued match, or nullptr.
  Envelope* find_match_locked(const RecvTicket& ticket);
  // Unlink `e` from the queue, move its message out, recycle the envelope.
  Message take_locked(Envelope* e);

  void pending_push_locked(RecvTicket* t);
  void pending_unlink_locked(RecvTicket* t);
  void queue_push_locked(Envelope* e);
  void queue_unlink_locked(Envelope* e);

  // True when any lane ring has traffic (lock-free peek for spin loops).
  bool lanes_nonempty() const noexcept;

  // The mailbox's one blocking loop: spin-then-park until `t` completes or
  // `deadline` (time_point::max() = never) passes. Returns t.done. Called
  // WITHOUT the mutex.
  bool block_on(RecvTicket& t, std::chrono::steady_clock::time_point deadline);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<int> parked_{0};  // waiters inside a cv wait (eventcount)

  EnvelopePool pool_;                  // mutex_
  Envelope* queue_head_ = nullptr;     // FIFO of undelivered messages
  Envelope* queue_tail_ = nullptr;
  std::size_t queue_size_ = 0;
  RecvTicket* pending_head_ = nullptr;  // posted receives, post order
  RecvTicket* pending_tail_ = nullptr;

  std::unique_ptr<std::atomic<Lane*>[]> lanes_;  // [sender world rank]
  int lane_count_ = 0;

  obs::Gauge* queue_peak_ = nullptr;
  obs::Gauge* ring_peak_ = nullptr;
};

}  // namespace mm::mpi
