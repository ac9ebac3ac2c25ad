// AVX-512 kernel level. Compiled only when MM_SIMD=ON and the toolchain
// accepts -mavx512f (see src/stats/CMakeLists.txt); selected at runtime when
// the host CPU reports AVX-512F.
//
// The level's table is the AVX2 table except for the paired Maronna pass
// defined here (the table itself lives in simd_avx2.cpp, where it is
// constant-initialized). The pass carries two independent pairs through one
// 512-bit pass: pair a in the low 256 bits, pair b in the high 256 bits.
// Every vertical operation is per lane, each half is reduced
// (l0 + l2) + (l1 + l3) like the AVX2 horizontal sum, and each pair's scalar
// tail is appended after its own reduction. So each half does exactly the
// one-pair AVX2 arithmetic and the two results are bit-identical to two
// maronna_weighted_sums calls — the property tests/test_simd_kernels.cpp
// asserts. No FMA is used and the TU is compiled with -ffp-contract=off, so
// nothing can be contracted.
#include "stats/simd_detail.hpp"

#if MM_SIMD_AVX512

#include <immintrin.h>

namespace mm::stats::simd {
namespace {

// The AVX2 horizontal sum of a 256-bit half.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// GCC 12's unmasked _mm512_insertf64x4, _mm512_extractf64x4_pd and
// _mm512_castpd512_pd256 trip -Wuninitialized (their _mm*_undefined_pd
// operand), so the halves move through the masked forms instead.
inline double hsum_lo(__m512d v) {
  return hsum(_mm512_maskz_extractf64x4_pd(0xF, v, 0));
}
inline double hsum_hi(__m512d v) {
  return hsum(_mm512_maskz_extractf64x4_pd(0xF, v, 1));
}

// a in the low four lanes, b in the high four.
inline __m512d halves(double a, double b) {
  return _mm512_set_pd(b, b, b, b, a, a, a, a);
}
inline __m512d load_halves(const double* a, const double* b) {
  return _mm512_mask_broadcast_f64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(a)),
                                     0xF0, _mm256_loadu_pd(b));
}

// The scalar tail of one pair, appended after its reduction — the AVX2
// kernel's tail loop.
void add_tail(const MaronnaPass& p, std::size_t begin, std::size_t n, double k2,
              WeightedSums& out) {
  for (std::size_t i = begin; i < n; ++i) {
    const double dx = p.x[i] - p.mx;
    const double dy = p.y[i] - p.my;
    const double d2 = dx * dx * p.ixx + 2.0 * dx * dy * p.ixy + dy * dy * p.iyy;
    const double w = d2 <= k2 ? 1.0 : k2 / d2;
    out.sw += w;
    out.swx += w * p.x[i];
    out.swy += w * p.y[i];
    out.sxx += w * dx * dx;
    out.sxy += w * dx * dy;
    out.syy += w * dy * dy;
  }
}

}  // namespace

namespace detail {

std::array<WeightedSums, 2> maronna_weighted_sums_pair_avx512(const MaronnaPass& a,
                                                              const MaronnaPass& b,
                                                              std::size_t n,
                                                              double k2) {
  const __m512d vmx = halves(a.mx, b.mx);
  const __m512d vmy = halves(a.my, b.my);
  const __m512d vixx = halves(a.ixx, b.ixx);
  const __m512d vixy = halves(a.ixy, b.ixy);
  const __m512d viyy = halves(a.iyy, b.iyy);
  const __m512d vk2 = _mm512_set1_pd(k2);
  const __m512d vtwo = _mm512_set1_pd(2.0);
  const __m512d vone = _mm512_set1_pd(1.0);
  __m512d asw = _mm512_setzero_pd();
  __m512d aswx = _mm512_setzero_pd();
  __m512d aswy = _mm512_setzero_pd();
  __m512d asxx = _mm512_setzero_pd();
  __m512d asxy = _mm512_setzero_pd();
  __m512d asyy = _mm512_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m512d xv = load_halves(a.x + i, b.x + i);
    const __m512d yv = load_halves(a.y + i, b.y + i);
    const __m512d dx = _mm512_sub_pd(xv, vmx);
    const __m512d dy = _mm512_sub_pd(yv, vmy);
    // d2 = (dx*dx)*ixx + ((2*dx)*dy)*ixy + (dy*dy)*iyy, left to right.
    const __m512d t1 = _mm512_mul_pd(_mm512_mul_pd(dx, dx), vixx);
    const __m512d t2 =
        _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(vtwo, dx), dy), vixy);
    const __m512d t3 = _mm512_mul_pd(_mm512_mul_pd(dy, dy), viyy);
    const __m512d d2 = _mm512_add_pd(_mm512_add_pd(t1, t2), t3);
    const __mmask8 inside = _mm512_cmp_pd_mask(d2, vk2, _CMP_LE_OQ);
    const __m512d w = _mm512_mask_blend_pd(inside, _mm512_div_pd(vk2, d2), vone);
    asw = _mm512_add_pd(asw, w);
    aswx = _mm512_add_pd(aswx, _mm512_mul_pd(w, xv));
    aswy = _mm512_add_pd(aswy, _mm512_mul_pd(w, yv));
    asxx = _mm512_add_pd(asxx, _mm512_mul_pd(_mm512_mul_pd(w, dx), dx));
    asxy = _mm512_add_pd(asxy, _mm512_mul_pd(_mm512_mul_pd(w, dx), dy));
    asyy = _mm512_add_pd(asyy, _mm512_mul_pd(_mm512_mul_pd(w, dy), dy));
  }
  std::array<WeightedSums, 2> out;
  out[0] = {hsum_lo(asw),  hsum_lo(aswx), hsum_lo(aswy),
            hsum_lo(asxx), hsum_lo(asxy), hsum_lo(asyy)};
  out[1] = {hsum_hi(asw),  hsum_hi(aswx), hsum_hi(aswy),
            hsum_hi(asxx), hsum_hi(asxy), hsum_hi(asyy)};
  // GCC emits no vzeroupper for this function; without one the caller's
  // SSE-encoded scalar code runs with a dirty upper state and pays for it
  // on every instruction.
  _mm256_zeroupper();
  add_tail(a, n4, n, k2, out[0]);
  add_tail(b, n4, n, k2, out[1]);
  return out;
}

}  // namespace detail
}  // namespace mm::stats::simd

#endif  // MM_SIMD_AVX512
