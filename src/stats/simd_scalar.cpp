// Scalar kernel variants — the canonical arithmetic.
//
// Reductions are written in lane form: four independent accumulators
// combined as (l0 + l2) + (l1 + l3), remainder appended sequentially after
// the combine. That is exactly the summation order of the AVX2 variants
// (vertical adds into a 4-lane register, one horizontal reduction, scalar
// tail), so the two produce bit-identical results. This TU is compiled with
// -ffp-contract=off (see src/stats/CMakeLists.txt): a contracted fused
// multiply-add would round differently from the AVX2 mul+add sequences and
// silently break that equivalence.
#include "stats/simd_detail.hpp"

#include <algorithm>
#include <cmath>

namespace mm::stats::simd {
namespace {

PairSums pair_sums_scalar(const double* x, const double* y, std::size_t n) {
  double ax[4] = {0.0, 0.0, 0.0, 0.0};
  double ay[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      ax[l] += x[i + l];
      ay[l] += y[i + l];
    }
  }
  PairSums out;
  out.sx = (ax[0] + ax[2]) + (ax[1] + ax[3]);
  out.sy = (ay[0] + ay[2]) + (ay[1] + ay[3]);
  for (std::size_t i = n4; i < n; ++i) {
    out.sx += x[i];
    out.sy += y[i];
  }
  return out;
}

CenteredSums centered_sums_scalar(const double* x, const double* y, std::size_t n,
                                  double mx, double my) {
  double axx[4] = {0.0, 0.0, 0.0, 0.0};
  double ayy[4] = {0.0, 0.0, 0.0, 0.0};
  double axy[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double dx = x[i + l] - mx;
      const double dy = y[i + l] - my;
      axx[l] += dx * dx;
      ayy[l] += dy * dy;
      axy[l] += dx * dy;
    }
  }
  CenteredSums out;
  out.sxx = (axx[0] + axx[2]) + (axx[1] + axx[3]);
  out.syy = (ayy[0] + ayy[2]) + (ayy[1] + ayy[3]);
  out.sxy = (axy[0] + axy[2]) + (axy[1] + axy[3]);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    out.sxx += dx * dx;
    out.syy += dy * dy;
    out.sxy += dx * dy;
  }
  return out;
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4)
    for (std::size_t l = 0; l < 4; ++l) acc[l] += x[i + l] * y[i + l];
  double s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (std::size_t i = n4; i < n; ++i) s += x[i] * y[i];
  return s;
}

void cross_insert_scalar(double* row, const double* r, double xi, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) row[k] += xi * r[k];
}

void cross_evict_insert_scalar(double* row, const double* r, const double* old_col,
                               double xi, double oi, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) row[k] += xi * r[k] - oi * old_col[k];
}

void pearson_row_scalar(double* orow, const double* crow, const double* sums_j,
                        const double* vars_j, const double* degen_j, double sum_i,
                        double vi, double count, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
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

WeightedSums maronna_weighted_sums_scalar(const double* x, const double* y,
                                          std::size_t n, double mx, double my,
                                          double ixx, double ixy, double iyy,
                                          double k2) {
  double asw[4] = {0.0, 0.0, 0.0, 0.0};
  double aswx[4] = {0.0, 0.0, 0.0, 0.0};
  double aswy[4] = {0.0, 0.0, 0.0, 0.0};
  double asxx[4] = {0.0, 0.0, 0.0, 0.0};
  double asxy[4] = {0.0, 0.0, 0.0, 0.0};
  double asyy[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double dx = x[i + l] - mx;
      const double dy = y[i + l] - my;
      const double d2 = dx * dx * ixx + 2.0 * dx * dy * ixy + dy * dy * iyy;
      const double w = d2 <= k2 ? 1.0 : k2 / d2;
      asw[l] += w;
      aswx[l] += w * x[i + l];
      aswy[l] += w * y[i + l];
      asxx[l] += w * dx * dx;
      asxy[l] += w * dx * dy;
      asyy[l] += w * dy * dy;
    }
  }
  WeightedSums out;
  out.sw = (asw[0] + asw[2]) + (asw[1] + asw[3]);
  out.swx = (aswx[0] + aswx[2]) + (aswx[1] + aswx[3]);
  out.swy = (aswy[0] + aswy[2]) + (aswy[1] + aswy[3]);
  out.sxx = (asxx[0] + asxx[2]) + (asxx[1] + asxx[3]);
  out.sxy = (asxy[0] + asxy[2]) + (asxy[1] + asxy[3]);
  out.syy = (asyy[0] + asyy[2]) + (asyy[1] + asyy[3]);
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

const KernelTable& scalar_table() {
  static const KernelTable table = {
      pair_sums_scalar,      centered_sums_scalar,
      dot_scalar,            cross_insert_scalar,
      cross_evict_insert_scalar, pearson_row_scalar,
      maronna_weighted_sums_scalar,
      two_maronna_passes<maronna_weighted_sums_scalar>,
  };
  return table;
}

}  // namespace detail
}  // namespace mm::stats::simd
