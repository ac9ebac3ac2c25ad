// AVX2 kernel variants. Compiled only when MM_SIMD=ON and the toolchain
// accepts -mavx2 (see src/stats/CMakeLists.txt); selected at runtime when
// the host CPU reports AVX2.
//
// Every kernel mirrors the scalar variant's arithmetic exactly: vertical
// 4-lane adds, one horizontal reduction in (l0 + l2) + (l1 + l3) order, and
// a sequential scalar tail appended after the combine. No FMA is used (and
// the TU is compiled with -ffp-contract=off so the tails cannot be
// contracted either); mul, add, div and sqrt are IEEE-754 exact per
// element, so results are bit-identical to the scalar kernels — the
// property tests/test_simd_kernels.cpp asserts.
#include "stats/simd_detail.hpp"

#if MM_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace mm::stats::simd {
namespace {

// (l0 + l2) + (l1 + l3): add the two 128-bit halves vertically, then the
// two remaining lanes. The scalar kernels replicate this order.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

PairSums pair_sums_avx2(const double* x, const double* y, std::size_t n) {
  __m256d ax = _mm256_setzero_pd();
  __m256d ay = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    ax = _mm256_add_pd(ax, _mm256_loadu_pd(x + i));
    ay = _mm256_add_pd(ay, _mm256_loadu_pd(y + i));
  }
  PairSums out;
  out.sx = hsum(ax);
  out.sy = hsum(ay);
  for (std::size_t i = n4; i < n; ++i) {
    out.sx += x[i];
    out.sy += y[i];
  }
  return out;
}

CenteredSums centered_sums_avx2(const double* x, const double* y, std::size_t n,
                                double mx, double my) {
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  __m256d axx = _mm256_setzero_pd();
  __m256d ayy = _mm256_setzero_pd();
  __m256d axy = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(y + i), vmy);
    axx = _mm256_add_pd(axx, _mm256_mul_pd(dx, dx));
    ayy = _mm256_add_pd(ayy, _mm256_mul_pd(dy, dy));
    axy = _mm256_add_pd(axy, _mm256_mul_pd(dx, dy));
  }
  CenteredSums out;
  out.sxx = hsum(axx);
  out.syy = hsum(ayy);
  out.sxy = hsum(axy);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    out.sxx += dx * dx;
    out.syy += dy * dy;
    out.sxy += dx * dy;
  }
  return out;
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4)
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  double s = hsum(acc);
  for (std::size_t i = n4; i < n; ++i) s += x[i] * y[i];
  return s;
}

void cross_insert_avx2(double* row, const double* r, double xi, std::size_t n) {
  const __m256d vxi = _mm256_set1_pd(xi);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256d cur = _mm256_loadu_pd(row + k);
    const __m256d add = _mm256_mul_pd(vxi, _mm256_loadu_pd(r + k));
    _mm256_storeu_pd(row + k, _mm256_add_pd(cur, add));
  }
  for (std::size_t k = n4; k < n; ++k) row[k] += xi * r[k];
}

void cross_evict_insert_avx2(double* row, const double* r, const double* old_col,
                             double xi, double oi, std::size_t n) {
  const __m256d vxi = _mm256_set1_pd(xi);
  const __m256d voi = _mm256_set1_pd(oi);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256d cur = _mm256_loadu_pd(row + k);
    const __m256d ins = _mm256_mul_pd(vxi, _mm256_loadu_pd(r + k));
    const __m256d evi = _mm256_mul_pd(voi, _mm256_loadu_pd(old_col + k));
    _mm256_storeu_pd(row + k, _mm256_add_pd(cur, _mm256_sub_pd(ins, evi)));
  }
  for (std::size_t k = n4; k < n; ++k) row[k] += xi * r[k] - oi * old_col[k];
}

void pearson_row_avx2(double* orow, const double* crow, const double* sums_j,
                      const double* vars_j, const double* degen_j, double sum_i,
                      double vi, double count, std::size_t n) {
  const __m256d vsum_i = _mm256_set1_pd(sum_i);
  const __m256d vvi = _mm256_set1_pd(vi);
  const __m256d vcount = _mm256_set1_pd(count);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vneg1 = _mm256_set1_pd(-1.0);
  const __m256d vpos1 = _mm256_set1_pd(1.0);
  const __m256d vinf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256d usable = _mm256_cmp_pd(_mm256_loadu_pd(degen_j + k), vzero,
                                         _CMP_EQ_OQ);
    const __m256d cov = _mm256_sub_pd(
        _mm256_loadu_pd(crow + k),
        _mm256_div_pd(_mm256_mul_pd(vsum_i, _mm256_loadu_pd(sums_j + k)), vcount));
    const __m256d denom =
        _mm256_sqrt_pd(_mm256_mul_pd(vvi, _mm256_loadu_pd(vars_j + k)));
    const __m256d good =
        _mm256_and_pd(_mm256_cmp_pd(denom, vzero, _CMP_GT_OQ),
                      _mm256_cmp_pd(denom, vinf, _CMP_LT_OQ));
    const __m256d q = _mm256_div_pd(cov, denom);
    const __m256d clamped = _mm256_min_pd(_mm256_max_pd(q, vneg1), vpos1);
    _mm256_storeu_pd(orow + k,
                     _mm256_and_pd(clamped, _mm256_and_pd(usable, good)));
  }
  for (std::size_t k = n4; k < n; ++k) {
    double r = 0.0;
    if (degen_j[k] == 0.0) {
      const double cov = crow[k] - sum_i * sums_j[k] / count;
      const double denom = std::sqrt(vi * vars_j[k]);
      if (denom > 0.0 && std::isfinite(denom))
        r = std::clamp(cov / denom, -1.0, 1.0);
    }
    orow[k] = r;
  }
}

WeightedSums maronna_weighted_sums_avx2(const double* x, const double* y,
                                        std::size_t n, double mx, double my,
                                        double ixx, double ixy, double iyy,
                                        double k2) {
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  const __m256d vixx = _mm256_set1_pd(ixx);
  const __m256d vixy = _mm256_set1_pd(ixy);
  const __m256d viyy = _mm256_set1_pd(iyy);
  const __m256d vk2 = _mm256_set1_pd(k2);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vone = _mm256_set1_pd(1.0);
  __m256d asw = _mm256_setzero_pd();
  __m256d aswx = _mm256_setzero_pd();
  __m256d aswy = _mm256_setzero_pd();
  __m256d asxx = _mm256_setzero_pd();
  __m256d asxy = _mm256_setzero_pd();
  __m256d asyy = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d dx = _mm256_sub_pd(xv, vmx);
    const __m256d dy = _mm256_sub_pd(yv, vmy);
    // d2 = (dx*dx)*ixx + ((2*dx)*dy)*ixy + (dy*dy)*iyy, summed left to
    // right — the scalar kernel's exact association.
    const __m256d t1 = _mm256_mul_pd(_mm256_mul_pd(dx, dx), vixx);
    const __m256d t2 =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(vtwo, dx), dy), vixy);
    const __m256d t3 = _mm256_mul_pd(_mm256_mul_pd(dy, dy), viyy);
    const __m256d d2 = _mm256_add_pd(_mm256_add_pd(t1, t2), t3);
    const __m256d inside = _mm256_cmp_pd(d2, vk2, _CMP_LE_OQ);
    const __m256d w = _mm256_blendv_pd(_mm256_div_pd(vk2, d2), vone, inside);
    asw = _mm256_add_pd(asw, w);
    aswx = _mm256_add_pd(aswx, _mm256_mul_pd(w, xv));
    aswy = _mm256_add_pd(aswy, _mm256_mul_pd(w, yv));
    asxx = _mm256_add_pd(asxx, _mm256_mul_pd(_mm256_mul_pd(w, dx), dx));
    asxy = _mm256_add_pd(asxy, _mm256_mul_pd(_mm256_mul_pd(w, dx), dy));
    asyy = _mm256_add_pd(asyy, _mm256_mul_pd(_mm256_mul_pd(w, dy), dy));
  }
  WeightedSums out;
  out.sw = hsum(asw);
  out.swx = hsum(aswx);
  out.swy = hsum(aswy);
  out.sxx = hsum(asxx);
  out.sxy = hsum(asxy);
  out.syy = hsum(asyy);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    const double d2 = dx * dx * ixx + 2.0 * dx * dy * ixy + dy * dy * iyy;
    const double w = d2 <= k2 ? 1.0 : k2 / d2;
    out.sw += w;
    out.swx += w * x[i];
    out.swy += w * y[i];
    out.sxx += w * dx * dx;
    out.sxy += w * dx * dy;
    out.syy += w * dy * dy;
  }
  return out;
}

}  // namespace

namespace detail {

const KernelTable& avx2_table() {
  static const KernelTable table = {
      pair_sums_avx2,      centered_sums_avx2,
      dot_avx2,            cross_insert_avx2,
      cross_evict_insert_avx2, pearson_row_avx2,
      maronna_weighted_sums_avx2,
      two_maronna_passes<maronna_weighted_sums_avx2>,
  };
  return table;
}

#if MM_SIMD_AVX512
// The AVX2 table with the 512-bit paired Maronna pass.
const KernelTable& avx512_table() {
  static const KernelTable table = {
      pair_sums_avx2,      centered_sums_avx2,
      dot_avx2,            cross_insert_avx2,
      cross_evict_insert_avx2, pearson_row_avx2,
      maronna_weighted_sums_avx2,
      maronna_weighted_sums_pair_avx512,
  };
  return table;
}
#endif

}  // namespace detail
}  // namespace mm::stats::simd

#endif  // MM_SIMD_AVX2
