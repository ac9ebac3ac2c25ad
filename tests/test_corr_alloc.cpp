// Allocation-freedom contract of the correlation plane's steady state.
//
// At thousands of symbols the correlation step runs every ∆s interval for a
// whole session; any per-step heap traffic turns into allocator contention
// and latency jitter at exactly the wrong moment. These tests count global
// operator new calls (binary-wide replacement — which is why they live in
// their own executable, same pattern as tests/test_transport.cpp) and assert:
//
//   CorrelationCalculator::push + matrix_into is allocation-free in steady
//   state for Pearson, Maronna and Combined (per-symbol robust scales in a
//   persistent buffer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "stats/corr_engine.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs these replacements against its builtin knowledge of new/delete
// and flags the malloc/free plumbing; the pairing here is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mm::stats {
namespace {

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Lockstep factor-model returns, reused across steps without reallocating.
class StepSource {
 public:
  explicit StepSource(std::size_t symbols, std::uint64_t seed)
      : rng_(seed), step_(symbols) {}

  const std::vector<double>& next() {
    const double f = rng_.normal();
    for (auto& r : step_) r = 1e-4 * (0.7 * f + rng_.normal());
    return step_;
  }

 private:
  Rng rng_;
  std::vector<double> step_;
};

// Steady-state allocations of `steps` push + matrix_into cycles, after a
// warmup that fills the windows and sizes every lazily-grown buffer.
std::uint64_t calculator_steady_state_allocs(const CorrEngineConfig& cfg,
                                             std::size_t symbols,
                                             std::size_t steps) {
  CorrelationCalculator calc(cfg, symbols);
  StepSource source(symbols, 42);
  SymMatrix out;
  for (std::size_t t = 0; t < cfg.window + 2; ++t) calc.push(source.next());
  calc.matrix_into(out);  // sizes out, unwrap arena and scratch
  calc.matrix_into(out);  // second call re-walks every memoized path

  const auto before = allocations();
  for (std::size_t t = 0; t < steps; ++t) {
    calc.push(source.next());
    calc.matrix_into(out);
  }
  return allocations() - before;
}

TEST(CorrAlloc, PearsonMatrixSteadyStateIsAllocationFree) {
  CorrEngineConfig cfg;
  cfg.window = 32;
  EXPECT_EQ(calculator_steady_state_allocs(cfg, 24, 8), 0u);
}

TEST(CorrAlloc, ColdMaronnaSteadyStateIsAllocationFree) {
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 24;
  EXPECT_EQ(calculator_steady_state_allocs(cfg, 10, 4), 0u);
}

TEST(CorrAlloc, ColdCombinedSteadyStateIsAllocationFree) {
  // The pipeline's correlation group runs exactly this configuration.
  CorrEngineConfig cfg;
  cfg.type = Ctype::combined;
  cfg.window = 24;
  EXPECT_EQ(calculator_steady_state_allocs(cfg, 10, 4), 0u);
}

}  // namespace
}  // namespace mm::stats
