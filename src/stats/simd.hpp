// Runtime-dispatched SIMD kernels for the correlation plane.
//
// The all-pairs study at thousands of symbols spends its time in a handful
// of dense double-precision loops: the two-pass Pearson accumulator, the
// packed cross-sum triangle update in ReturnWindows::push, the
// pearson_matrix row kernel, and the Maronna reweighting pass. Each kernel
// here exists at up to three levels:
//
//   * scalar, compiled unconditionally — the canonical definition of the
//     arithmetic. It is written in "lane form": reductions keep four
//     independent accumulators that are combined as (l0 + l2) + (l1 + l3)
//     with any remainder added sequentially afterwards, exactly mirroring
//     the AVX2 horizontal-sum order.
//   * avx2, compiled only when MM_SIMD is ON and the compiler supports
//     -mavx2, selected at runtime via CPU detection.
//   * avx512, compiled when the compiler also supports -mavx512f and
//     selected when the CPU reports AVX-512F. Its table is the AVX2 table
//     except for the paired Maronna pass, which runs two pairs' passes in
//     one 512-bit pass: pair a in the low 256 bits, pair b in the high 256
//     bits. Each half is reduced (l0 + l2) + (l1 + l3) and gets its own
//     scalar tail, so every half does exactly the AVX2 one-pair arithmetic.
//     The scalar and AVX2 tables implement the paired entry as two calls of
//     their one-pair kernel.
//
// Because the scalar variant is lane-matched and every kernel translation
// unit is built with -ffp-contract=off (no fused multiply-add anywhere), all
// levels produce BIT-IDENTICAL results for every kernel: additions happen
// in the same order, and the remaining operations (mul, div, sqrt, compare,
// blend) are IEEE-754 exact per element. The golden tests in
// tests/test_simd_kernels.cpp assert this across aligned, unaligned and
// remainder lengths, which is what lets the engines dispatch freely without
// splitting the numerical contract.
//
// Layout contract: every kernel reads plain contiguous double arrays — the
// SoA layouts the window store already uses (ReturnWindows::data_ rows, the
// packed SymMatrix triangle, the unwrap arena). No alignment is required;
// the vector variants use unaligned loads.
#pragma once

#include <array>
#include <cstddef>

namespace mm::stats::simd {

enum class Level { scalar = 0, avx2 = 1, avx512 = 2 };

// Human-readable level name ("scalar" / "avx2" / "avx512"), for bench labels
// and logs.
const char* level_name(Level level);

// True when the AVX2 variants were compiled in (MM_SIMD=ON on an x86-64
// toolchain). Independent of what the host CPU supports.
bool avx2_compiled();

// True when the AVX2 variants are both compiled in and runnable on this CPU.
bool avx2_supported();

// The same pair for the AVX-512 level (which also needs AVX2).
bool avx512_compiled();
bool avx512_supported();

// The level the dispatched kernels currently use: the best supported level,
// unless overridden. MM_SIMD_LEVEL=scalar in the environment pins the
// initial choice to the scalar table; ScopedLevel overrides it temporarily.
Level active_level();

// Force a specific level (bench/tests). Returns false — and changes nothing
// — if `level` is not available in this build/host. Not thread-safe against
// concurrent kernel callers making dispatch decisions mid-benchmark; switch
// levels only between measured regions.
bool set_level(Level level);

// RAII level override for tests and benchmarks.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  bool engaged() const { return engaged_; }

  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level saved_;
  bool engaged_;
};

// --- kernel result bundles -------------------------------------------------

struct PairSums {
  double sx = 0.0;
  double sy = 0.0;
};

struct CenteredSums {
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
};

struct WeightedSums {
  double sw = 0.0;
  double swx = 0.0;
  double swy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
};

// One Maronna reweighting pass's inputs: the pair's samples, its location
// and its inverse scatter.
struct MaronnaPass {
  const double* x = nullptr;
  const double* y = nullptr;
  double mx = 0.0;
  double my = 0.0;
  double ixx = 0.0;
  double ixy = 0.0;
  double iyy = 0.0;
};

// --- dispatch table --------------------------------------------------------
//
// One indirect call per kernel invocation; the table pointer is resolved
// once at startup (and by set_level). Kernel granularity is a whole array
// pass, so the indirection is noise.

struct KernelTable {
  // Σx, Σy over x[0..n), y[0..n)  (pass 1 of batch Pearson).
  PairSums (*pair_sums)(const double* x, const double* y, std::size_t n);

  // Σ(x-mx)², Σ(y-my)², Σ(x-mx)(y-my)  (pass 2 of batch Pearson).
  CenteredSums (*centered_sums)(const double* x, const double* y, std::size_t n,
                                double mx, double my);

  // Σ x·y (window rebuild of the cross-sum triangle).
  double (*dot)(const double* x, const double* y, std::size_t n);

  // row[k] += xi * r[k]                 for k in [0, n)  (warmup inserts).
  void (*cross_insert)(double* row, const double* r, double xi, std::size_t n);

  // row[k] += xi * r[k] - oi * old[k]   for k in [0, n)  (fused evict+insert).
  void (*cross_evict_insert)(double* row, const double* r, const double* old_col,
                             double xi, double oi, std::size_t n);

  // One pearson_matrix row segment: for k in [0, n)
  //   orow[k] = 0 unless degen_j[k] == 0, else
  //     cov   = crow[k] - sum_i * sums_j[k] / count
  //     denom = sqrt(vi * vars_j[k])
  //     orow[k] = denom > 0 && finite ? clamp(cov / denom, -1, 1) : 0
  // The caller handles a degenerate row-symbol i by zero-filling instead.
  // degen_j holds 0.0 (usable) / 1.0 (degenerate) per column symbol.
  void (*pearson_row)(double* orow, const double* crow, const double* sums_j,
                      const double* vars_j, const double* degen_j, double sum_i,
                      double vi, double count, std::size_t n);

  // One Maronna reweighting pass over x[0..n), y[0..n) with location
  // (mx, my), inverse scatter (ixx, ixy, iyy) and Huber bound k2:
  //   d2 = dx*dx*ixx + 2*dx*dy*ixy + dy*dy*iyy
  //   w  = d2 <= k2 ? 1 : k2 / d2
  // accumulating sw, Σw·x, Σw·y, Σw·dx², Σw·dx·dy, Σw·dy².
  WeightedSums (*maronna_weighted_sums)(const double* x, const double* y,
                                        std::size_t n, double mx, double my,
                                        double ixx, double ixy, double iyy,
                                        double k2);

  // Two independent pairs' passes over n points each, same k2: element 0 is
  // a's sums, element 1 is b's, each bit-identical to maronna_weighted_sums
  // on that pair.
  std::array<WeightedSums, 2> (*maronna_weighted_sums_pair)(const MaronnaPass& a,
                                                            const MaronnaPass& b,
                                                            std::size_t n,
                                                            double k2);
};

// The active table (dispatched entry point used by the stats kernels).
const KernelTable& kernels();

// Explicit variants, for the golden equivalence tests and the scaling
// benchmarks. `table_for` falls back to the best supported lower level:
// avx512 to avx2, avx2 to scalar.
const KernelTable& scalar_kernels();
const KernelTable& table_for(Level level);

}  // namespace mm::stats::simd
