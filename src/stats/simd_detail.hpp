// Internal wiring between the simd dispatch TU and the per-level kernel TUs.
// Not part of the stats API — include simd.hpp instead.
#pragma once

#include "stats/simd.hpp"

namespace mm::stats::simd::detail {

// Defined in simd_scalar.cpp (always) and simd_avx2.cpp (when MM_SIMD_AVX2;
// the avx512 table when MM_SIMD_AVX512 too).
const KernelTable& scalar_table();
#if MM_SIMD_AVX2
const KernelTable& avx2_table();
#endif
#if MM_SIMD_AVX512
const KernelTable& avx512_table();
// The AVX-512 level's one new kernel, defined in simd_avx512.cpp.
std::array<WeightedSums, 2> maronna_weighted_sums_pair_avx512(const MaronnaPass& a,
                                                              const MaronnaPass& b,
                                                              std::size_t n,
                                                              double k2);
#endif

// The paired Maronna entry of a level without a paired kernel: two calls of
// its one-pair kernel.
template <auto OnePair>
std::array<WeightedSums, 2> two_maronna_passes(const MaronnaPass& a,
                                               const MaronnaPass& b,
                                               std::size_t n, double k2) {
  return {OnePair(a.x, a.y, n, a.mx, a.my, a.ixx, a.ixy, a.iyy, k2),
          OnePair(b.x, b.y, n, b.mx, b.my, b.ixx, b.ixy, b.iyy, k2)};
}

}  // namespace mm::stats::simd::detail
