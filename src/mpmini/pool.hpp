// Pooled message envelopes for the mailbox's queued-message store.
//
// A message that cannot complete a posted receive immediately is parked in
// the mailbox queue. The queue is an intrusive doubly-linked list of Envelope
// nodes drawn from this pool: a free-list over power-of-two arena blocks, so
// steady-state queue churn (push/pop at similar rates) recycles nodes and
// never calls operator new. Blocks are only carved when the free list runs
// dry (deep backlog), and are returned to the system when the pool dies with
// its mailbox.
//
// Not thread-safe: the pool is owned by one Mailbox and used only under its
// mutex, exactly like the queue it feeds.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mpmini/message.hpp"

namespace mm::mpi {

// One queued message plus the intrusive links that thread it into the
// mailbox queue or the free list.
struct Envelope {
  Message msg;
  Envelope* prev = nullptr;
  Envelope* next = nullptr;
};

class EnvelopePool {
 public:
  explicit EnvelopePool(std::size_t first_block = 64) : next_block_(first_block) {}

  // Pop a recycled envelope, carving a fresh arena block only when the free
  // list is empty. The returned node's links are cleared; `msg` may hold a
  // moved-from payload whose capacity is reused by the next assignment.
  Envelope* acquire() {
    if (free_ == nullptr) grow();
    Envelope* e = free_;
    free_ = e->next;
    e->prev = nullptr;
    e->next = nullptr;
    return e;
  }

  // Return a consumed envelope to the free list. The payload buffer is left
  // in place (moved-from, capacity intact) so re-acquiring reuses it.
  void release(Envelope* e) {
    e->prev = nullptr;
    e->next = free_;
    free_ = e;
  }

  // Number of arena blocks carved so far (tests: steady state stays at one).
  std::size_t blocks() const { return blocks_.size(); }

  EnvelopePool(const EnvelopePool&) = delete;
  EnvelopePool& operator=(const EnvelopePool&) = delete;

 private:
  void grow() {
    auto block = std::make_unique<Envelope[]>(next_block_);
    for (std::size_t i = 0; i < next_block_; ++i) {
      block[i].next = free_;
      free_ = &block[i];
    }
    blocks_.push_back(std::move(block));
    next_block_ *= 2;  // geometric growth keeps block count logarithmic
  }

  Envelope* free_ = nullptr;
  std::size_t next_block_;
  std::vector<std::unique_ptr<Envelope[]>> blocks_;
};

}  // namespace mm::mpi
