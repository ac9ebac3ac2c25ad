// Bounded lock-free single-producer / single-consumer ring.
//
// The intra-process transport's hot path: each (sender rank -> receiver rank)
// pair owns one SpscRing<Message> (a "lane", see mailbox.hpp), so a send is a
// move into a pre-sized slot plus one store — no lock, no allocation,
// no contention with other senders. Slots are reused in place, which makes the
// ring double as the envelope arena: a Message's payload vector moved into a
// slot is moved out again by the consumer, so steady-state traffic recycles
// buffers instead of allocating.
//
// Contract:
//   * exactly one producer thread calls try_push;
//   * consumers call try_pop / empty / depth_peak — multiple threads may
//     consume, but only if their pops are serialized externally (the mailbox
//     serializes drains under its mutex; the mutex hand-off provides the
//     ordering the SPSC protocol needs between alternating consumer threads);
//   * capacity is rounded up to a power of two; a full ring rejects the push
//     (the transport falls back to the locked mailbox path, see comm.cpp);
//   * the tail is published and read seq_cst: it is one half of the
//     mailbox's park handshake (Mailbox::notify_ring_push), whose other half
//     is a seq_cst counter. On x86 the loads stay plain moves and the publish
//     is one xchg.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace mm::mpi {

inline std::size_t round_up_pow2(std::size_t n) {
  constexpr std::size_t top = std::size_t{1} << (sizeof(std::size_t) * 8 - 1);
  std::size_t p = 1;
  // Saturate at the top bit: shifting past it would wrap p to zero and loop
  // forever (the lanes use a fixed capacity anyway, see lane_capacity).
  while (p < n && p < top) p <<= 1;
  return p;
}

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(std::make_unique<T[]>(mask_ + 1)) {}

  std::size_t capacity() const noexcept { return mask_ + 1; }

  // Producer side. Returns false when the ring is full.
  bool try_push(T&& v) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_seq_cst);
      if (head == tail_cache_) return false;
      // The depth at this refresh is exact (head is the consumer's own).
      if (tail_cache_ - head > depth_peak_) depth_peak_ = tail_cache_ - head;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Cheap emptiness probe for spin loops: safe from any thread, may race
  // (a false "empty" is caught by the next poll or by the park protocol).
  bool empty() const noexcept {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_seq_cst);
  }

  // Consumer side: the deepest the ring was at any try_pop that refreshed
  // its view of the tail. Each sample is exact and costs the producer
  // nothing; depth reached between two samples and popped before the second
  // is not seen, so the peak never over-states.
  std::size_t depth_peak() const noexcept {
    return static_cast<std::size_t>(depth_peak_);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

 private:
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next slot to fill
  alignas(64) std::uint64_t head_cache_ = 0;        // producer's view of head
  alignas(64) std::uint64_t tail_cache_ = 0;        // consumer's view of tail
  std::uint64_t depth_peak_ = 0;                    // consumer-owned
  const std::size_t mask_;
  std::unique_ptr<T[]> slots_;
};

}  // namespace mm::mpi
