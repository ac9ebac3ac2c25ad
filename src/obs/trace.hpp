// mm::obs tracing — per-rank rings of compact events drained to Chrome JSON,
// stitched across ranks by causal flow events.
//
// A TraceRing is a fixed-capacity, single-writer ring of 64-byte events owned
// by one rank thread: recording a span is two steady_clock reads plus one
// bounded memcpy, no locks and no allocation; when the ring is full the
// newest events are dropped and counted. A TraceSink owns one ring per rank
// ("process" in the viewer) and serializes them into the chrome://tracing /
// Perfetto JSON format after the run — one process per rank, one named thread
// per dagflow node.
//
// Recording is RAII: ObsSpan emits a complete ("X") event covering its own
// lifetime and can simultaneously record the duration into a Histogram, which
// is how dagflow keeps one timing mechanism for traces and metrics.
//
// Causal propagation: a TraceContext (trace_id + parent span) travels with
// the work. Each thread has one current context and one current ring (see
// thread_trace()); mpmini stamps the context into every outgoing Message
// header and emits a flow-start on the sender's ring, the matching receive
// emits a flow-finish with the same id on the receiver's ring, and the
// viewer draws the arrow — one causally connected trace per pipeline run
// instead of N disconnected per-rank timelines. dagflow makes node code
// inherit the context of the frame that woke it (see dag::Context::recv).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace mm::obs {

// Longest event name stored without truncation (TraceEvent::name capacity
// minus the terminator).
inline constexpr std::size_t kMaxEventName = 38;

// Absolute steady-clock nanoseconds (the time base for every trace event).
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The causal coordinates a unit of work carries: which end-to-end trace it
// belongs to and which span caused it. trace_id == 0 means "not traced" —
// send sites skip the envelope header and emit no flow events.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

inline TraceContext make_trace_context(std::uint64_t trace_id,
                                       std::uint32_t parent_span = 0) {
  return {trace_id, parent_span};
}

// Process-wide id allocators (relaxed atomic counters; never return 0, so 0
// stays the "untraced" sentinel in envelopes and contexts).
std::uint64_t next_trace_id();
std::uint32_t next_span_id();

struct TraceEvent {
  char name[39];        // truncated copy; self-contained, no interning
  std::uint8_t kind;    // one of TraceRing::kSpan / kInstant / kFlow*
  std::int64_t ts_ns;   // relative to the sink epoch
  std::int64_t dur_ns;
  std::int32_t tid;
  std::uint32_t flow;   // flow-event id (kFlowStart/kFlowFinish), else 0
};
static_assert(sizeof(TraceEvent) == 64, "one event per cache line");
static_assert(sizeof(TraceEvent{}.name) == kMaxEventName + 1, "name capacity");

class TraceRing {
 public:
  static constexpr std::uint8_t kSpan = 0;        // complete ("X") event
  static constexpr std::uint8_t kInstant = 1;     // instant ("i") event
  static constexpr std::uint8_t kFlowStart = 2;   // flow start ("s")
  static constexpr std::uint8_t kFlowFinish = 3;  // flow finish ("f")

  TraceRing(std::int32_t pid, std::int64_t epoch_ns, std::size_t capacity);

  // The thread row subsequent events belong to (a dagflow node id).
  void set_tid(std::int32_t tid) { tid_ = tid; }
  std::int32_t pid() const { return pid_; }

  // Record a complete span [start_ns, start_ns + dur_ns) (absolute ns).
  void complete(const char* name, std::int64_t start_ns, std::int64_t dur_ns) {
    push(name, start_ns, dur_ns, kSpan, 0);
  }

  // Record a zero-duration instant event at now.
  void instant(const char* name) { push(name, now_ns(), 0, kInstant, 0); }

  // Flow events: start on the producing rank, finish on the consuming rank,
  // same id. ts_ns must fall inside a complete span on the same (pid, tid)
  // row — the viewer binds the arrow ends to the enclosing slices.
  void flow_start(const char* name, std::int64_t ts_ns, std::uint32_t id) {
    push(name, ts_ns, 0, kFlowStart, id);
  }
  void flow_finish(const char* name, std::int64_t ts_ns, std::uint32_t id) {
    push(name, ts_ns, 0, kFlowFinish, id);
  }

  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  const TraceEvent& event(std::size_t i) const { return events_[i]; }

 private:
  void push(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
            std::uint8_t kind, std::uint32_t flow);

  std::int32_t pid_;
  std::int32_t tid_ = 0;
  std::int64_t epoch_ns_;
  std::vector<TraceEvent> events_;  // filled [0, size_)
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t ring_capacity = 1u << 16);

  // The ring for rank `pid`, created (and its process named) on first use.
  // Creation is mutex-guarded; the returned ring must only be written by the
  // rank's own thread.
  TraceRing& ring(std::int32_t pid, const std::string& process_name);

  // Name the (pid, tid) row — e.g. the dagflow node running on that rank.
  void set_thread_name(std::int32_t pid, std::int32_t tid, const std::string& name);

  // Attach a key/value to the trace's "otherData" object (job id, tenant,
  // trace id — anything a consumer needs to identify the trace).
  void set_meta(const std::string& key, const std::string& value);

  std::int64_t epoch_ns() const { return epoch_ns_; }

  // Serialize all rings. Call after every writer thread has finished (the
  // reader takes the registration mutex but events themselves are unsynchronized
  // by design).
  std::string chrome_json() const;
  Status write_file(const std::string& path) const;

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;
  // Flow-event totals across rings (cross-rank stitches; finishes can trail
  // starts when messages were dropped in flight).
  std::uint64_t total_flow_starts() const;
  std::uint64_t total_flow_finishes() const;

 private:
  std::uint64_t count_kind(std::uint8_t kind) const;

  std::int64_t epoch_ns_;
  std::size_t ring_capacity_;
  mutable std::mutex mutex_;
  std::map<std::int32_t, std::unique_ptr<TraceRing>> rings_;
  std::map<std::int32_t, std::string> process_names_;
  std::map<std::pair<std::int32_t, std::int32_t>, std::string> thread_names_;
  std::map<std::string, std::string> meta_;
};

// RAII span: records its constructor→destructor lifetime as a trace event
// on `ring` and/or a sample in `hist`. Null arguments are skipped; with both
// null the span is free (no clock reads). `name` must outlive the span.
class ObsSpan {
 public:
  ObsSpan(TraceRing* ring, const char* name, Histogram* hist = nullptr)
      : ring_(ring), hist_(hist), name_(name) {
#ifndef NDEBUG
    // Debug-only truncation guard: a name longer than the event's inline
    // buffer would be silently cut, and stitched cross-rank span names must
    // not diverge between the sender's and receiver's rings.
    MM_ASSERT_MSG(ring == nullptr || name == nullptr ||
                      std::strlen(name) <= kMaxEventName,
                  "ObsSpan name longer than TraceEvent::name; shorten it");
#endif
    if (ring_ != nullptr || hist_ != nullptr) start_ns_ = now_ns();
  }

  // End the span now instead of at destruction (idempotent).
  void close() {
    if (ring_ == nullptr && hist_ == nullptr) return;
    const std::int64_t dur = now_ns() - start_ns_;
    if (ring_ != nullptr) ring_->complete(name_, start_ns_, dur);
    if (hist_ != nullptr) hist_->record(dur);
    ring_ = nullptr;
    hist_ = nullptr;
  }

  ~ObsSpan() { close(); }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  TraceRing* ring_;
  Histogram* hist_;
  const char* name_;
  std::int64_t start_ns_ = 0;
};

// The calling thread's tracing state: the ring its spans go to (set by the
// dagflow run harness / service worker for the thread's lifetime) and the
// context of the work it is currently executing (updated as frames are
// consumed). One TLS slot for both so the transport hot path pays a single
// thread-local address computation when idle.
struct ThreadTrace {
  TraceRing* ring = nullptr;
  TraceContext context{};
};

ThreadTrace& thread_trace() noexcept;

inline TraceRing* current_trace_ring() noexcept { return thread_trace().ring; }
inline TraceContext current_trace_context() noexcept {
  return thread_trace().context;
}
inline void set_trace_context(TraceContext context) noexcept {
  thread_trace().context = context;
}

// Scoped installation of a thread's trace ring (the rank thread's row in the
// sink). Restores the previous ring on destruction.
class TraceRingScope {
 public:
  explicit TraceRingScope(TraceRing* ring) : prev_(thread_trace().ring) {
    thread_trace().ring = ring;
  }
  ~TraceRingScope() { thread_trace().ring = prev_; }

  TraceRingScope(const TraceRingScope&) = delete;
  TraceRingScope& operator=(const TraceRingScope&) = delete;

 private:
  TraceRing* prev_;
};

// Scoped installation of the thread's current causal context.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context)
      : prev_(thread_trace().context) {
    thread_trace().context = context;
  }
  ~TraceContextScope() { thread_trace().context = prev_; }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace mm::obs
