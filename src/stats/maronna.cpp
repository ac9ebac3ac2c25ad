#include "stats/maronna.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "stats/simd.hpp"

namespace mm::stats {
namespace {

// Destructive median: permutes v[0..n) in place (nth_element), which is fine
// for the scratch buffers this runs on — only the value multiset matters to
// every later consumer (the MAD over deviations).
double median_inplace(double* v, std::size_t n) {
  const std::size_t mid = n / 2;
  std::nth_element(v, v + static_cast<std::ptrdiff_t>(mid), v + n);
  const double hi = v[mid];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v, v + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

// Median absolute deviation scaled to be consistent for the normal, using
// caller-provided deviation scratch so repeated calls never allocate.
double mad(const double* v, std::size_t n, double center,
           std::vector<double>& dev) {
  dev.resize(n);
  for (std::size_t i = 0; i < n; ++i) dev[i] = std::abs(v[i] - center);
  return 1.4826 * median_inplace(dev.data(), n);
}

// The reweighting fixed point. `out` arrives with location/scatter seeded;
// the floors are carried through every iteration (they are 0 except for
// MAD-degenerate starts).
void iterate_fixed_point(const double* x, const double* y, std::size_t n,
                         double floor_x, double floor_y,
                         const MaronnaConfig& config, MaronnaResult& out) {
  double mx = out.location_x;
  double my = out.location_y;
  double vxx = out.scatter_xx;
  double vxy = out.scatter_xy;
  double vyy = out.scatter_yy;

  const auto nd = static_cast<double>(n);
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    // Invert the 2x2 scatter.
    const double det = vxx * vyy - vxy * vxy;
    if (det <= 0.0 || !std::isfinite(det)) break;
    const double ixx = vyy / det;
    const double iyy = vxx / det;
    const double ixy = -vxy / det;

    // One reweighting pass over the window — the kernel computes the Huber
    // weight on the Mahalanobis distance and the six weighted sums in a
    // single sweep (SIMD-dispatched; scalar and AVX2 agree bitwise).
    const auto s = simd::kernels().maronna_weighted_sums(
        x, y, n, mx, my, ixx, ixy, iyy, config.huber_k2);
    if (s.sw <= 0.0) break;

    const double new_mx = s.swx / s.sw;
    const double new_my = s.swy / s.sw;
    // Scatter normalized by n (Maronna's fixed-point with Huber rho keeps the
    // estimate consistent up to a scale factor that cancels in correlation).
    const double new_vxx = s.sxx / nd + floor_x;
    const double new_vyy = s.syy / nd + floor_y;
    const double new_vxy = s.sxy / nd;

    const double scale = std::max({std::abs(vxx), std::abs(vyy), 1e-300});
    const double delta = std::max({std::abs(new_vxx - vxx), std::abs(new_vyy - vyy),
                                   std::abs(new_vxy - vxy)}) /
                         scale;
    mx = new_mx;
    my = new_my;
    vxx = new_vxx;
    vyy = new_vyy;
    vxy = new_vxy;
    out.iterations = iter + 1;
    if (delta < config.tolerance) {
      out.converged = true;
      break;
    }
  }

  out.location_x = mx;
  out.location_y = my;
  out.scatter_xx = vxx;
  out.scatter_xy = vxy;
  out.scatter_yy = vyy;

  const double denom = std::sqrt(vxx * vyy);
  if (denom <= 0.0 || !std::isfinite(denom)) {
    out.correlation = 0.0;
  } else {
    out.correlation = std::clamp(vxy / denom, -1.0, 1.0);
  }
}

}  // namespace

RobustScale robust_scale(const double* v, std::size_t n,
                         MaronnaScratch& scratch) {
  MM_ASSERT_MSG(n >= 1, "robust_scale needs n >= 1");
  // The copy lives in the caller's scratch (nth_element permutes it), so
  // steady-state sweeps re-use capacity instead of allocating per call.
  scratch.values.assign(v, v + n);
  const double median = median_inplace(scratch.values.data(), n);
  return {median, mad(v, n, median, scratch.dev)};
}

MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const RobustScale& sx, const RobustScale& sy,
                               const MaronnaConfig& config) {
  MM_ASSERT_MSG(n >= 2, "maronna needs n >= 2");
  MaronnaResult out;
  // Robust initialization: coordinatewise medians and MADs, zero covariance.
  out.location_x = sx.median;
  out.location_y = sy.median;

  // Degenerate dispersion (e.g. a constant return window): fall back to a
  // tiny floor so the iteration is defined; if both are flat, report 0.
  if (sx.mad <= 0.0 && sy.mad <= 0.0) return out;
  const double floor_x = sx.mad > 0.0 ? 0.0 : 1e-12;
  const double floor_y = sy.mad > 0.0 ? 0.0 : 1e-12;

  out.scatter_xx = sx.mad * sx.mad + floor_x;
  out.scatter_yy = sy.mad * sy.mad + floor_y;
  out.scatter_xy = 0.0;
  iterate_fixed_point(x, y, n, floor_x, floor_y, config, out);
  return out;
}

MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config,
                               MaronnaScratch& scratch) {
  MM_ASSERT_MSG(n >= 2, "maronna needs n >= 2");
  // One cold-start body: the pairwise form is the scale-seeded form fed
  // from two fresh per-sample selections.
  const RobustScale sx = robust_scale(x, n, scratch);
  const RobustScale sy = robust_scale(y, n, scratch);
  return maronna_estimate(x, y, n, sx, sy, config);
}

MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config) {
  MaronnaScratch scratch;
  return maronna_estimate(x, y, n, config, scratch);
}

double maronna(const double* x, const double* y, std::size_t n,
               const MaronnaConfig& config) {
  return maronna_estimate(x, y, n, config).correlation;
}

double maronna(const std::vector<double>& x, const std::vector<double>& y,
               const MaronnaConfig& config) {
  MM_ASSERT_MSG(x.size() == y.size(), "maronna: length mismatch");
  return maronna(x.data(), y.data(), x.size(), config);
}

}  // namespace mm::stats
