// Microbenchmarks for the mm::obs hot path. The headline number is
// BM_CounterAdd: one thread-local shard lookup plus a relaxed fetch_add,
// budgeted at under 10 ns per increment (see DESIGN.md "Observability").
// The threaded variants demonstrate that sharding keeps concurrent writers
// off each other's cache lines; BM_SpanNull shows a disabled ObsSpan costs
// nothing (no clock reads).
#include <benchmark/benchmark.h>

#include <vector>

#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mm::obs;

void BM_HeartbeatBeat(benchmark::State& state) {
  // The liveness hot path: every transport op calls beat() — one relaxed
  // store of a pre-incremented local sequence, no clock read, no RMW.
  // Budgeted at under 10 ns (see BENCH_obs.json / DESIGN.md).
  HeartbeatBoard board(1);
  Pulse pulse;
  pulse.slot = board.slot(0);
  for (auto _ : state) {
    pulse.beat();
    benchmark::DoNotOptimize(&pulse);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeartbeatBeat);

void BM_HeartbeatBeatUnarmed(benchmark::State& state) {
  // Threads outside a monitored run: beat() is one null check.
  Pulse pulse;
  for (auto _ : state) {
    pulse.beat();
    benchmark::DoNotOptimize(&pulse);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeartbeatBeatUnarmed);

void BM_CounterAdd(benchmark::State& state) {
  static Counter counter;  // shared across the threaded variants
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_CounterAdd)->Threads(4)->UseRealTime();
BENCHMARK(BM_CounterAdd)->Threads(8)->UseRealTime();

void BM_GaugeMaxOf(benchmark::State& state) {
  static Gauge gauge;
  std::int64_t v = 0;
  for (auto _ : state) gauge.max_of(++v);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeMaxOf);
BENCHMARK(BM_GaugeMaxOf)->Threads(4)->UseRealTime();

void BM_HistogramRecord(benchmark::State& state) {
  static Histogram hist(default_latency_bounds_ns());
  std::int64_t v = 0;
  for (auto _ : state) {
    // Rotate through the bucket range so the bound scan isn't always length 1.
    v = (v + 77'777) & ((1 << 22) - 1);
    hist.record(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);
BENCHMARK(BM_HistogramRecord)->Threads(4)->UseRealTime();

void BM_SpanNull(benchmark::State& state) {
  // Both targets null: the span must not even read the clock.
  for (auto _ : state) {
    ObsSpan span(nullptr, "noop");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanNull);

void BM_SpanHistogram(benchmark::State& state) {
  // Two steady_clock reads + one histogram record per span.
  static Histogram hist(default_latency_bounds_ns());
  for (auto _ : state) {
    ObsSpan span(nullptr, "timed", &hist);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanHistogram);

void BM_SpanTraced(benchmark::State& state) {
  // Span into a trace ring (single-writer; rings are per rank thread).
  TraceSink sink(1u << 20);
  TraceRing& ring = sink.ring(0, "bench");
  for (auto _ : state) {
    ObsSpan span(&ring, "traced");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanTraced);

void BM_SpanWithContext(benchmark::State& state) {
  // What a traced send pays on top of BM_SpanTraced: allocate a flow id,
  // stamp the envelope header from the thread context, and emit the
  // flow-start next to the span (mirrors mpmini's internal_send path).
  TraceSink sink(1u << 20);
  TraceRing& ring = sink.ring(0, "bench");
  TraceRingScope ring_scope(&ring);
  TraceContextScope context_scope(make_trace_context(next_trace_id()));
  for (auto _ : state) {
    const TraceContext context = current_trace_context();
    std::uint64_t header_trace_id = 0;
    std::uint32_t header_flow = 0;
    if (context.valid()) {
      header_trace_id = context.trace_id;
      header_flow = next_span_id();
    }
    benchmark::DoNotOptimize(header_trace_id);
    const std::int64_t t0 = now_ns();
    ring.flow_start("msg", t0, header_flow);
    ring.complete("send", t0, now_ns() - t0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanWithContext);

void BM_EnvelopeHeaderIdle(benchmark::State& state) {
  // The per-message cost tracing adds to the transport hot path when it is
  // compiled in but NOT active (no ring installed): one thread-local address
  // computation plus a branch. This is the number the pingpong p50 budget
  // (< 5% regression, BENCH_mpmini.json) rides on.
  for (auto _ : state) {
    ThreadTrace& tt = thread_trace();
    bool traced = tt.ring != nullptr && tt.context.valid();
    benchmark::DoNotOptimize(traced);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnvelopeHeaderIdle);

void BM_RegistrySnapshot(benchmark::State& state) {
  // Cold-side cost: aggregate a realistically sized registry.
  Registry registry;
  for (int i = 0; i < 32; ++i)
    registry.counter("bench.counter." + std::to_string(i)).add(1);
  for (int i = 0; i < 8; ++i)
    registry.histogram("bench.hist." + std::to_string(i)).record(1000);
  for (auto _ : state) benchmark::DoNotOptimize(registry.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrySnapshot);

}  // namespace
