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

// One pair's reweighting fixed point between passes. `state` carries the
// location, scatter and pass count; `pass` holds the next pass's inputs. The
// floors are carried through every pass (they are 0 except for
// MAD-degenerate starts). The iteration is three steps per pass — invert the
// scatter, run the pass, apply its sums — and finish() once the pair exits;
// maronna_estimate runs one pair through them, maronna_correlations two at a
// time, so both compute the same bits.
struct FixedPoint {
  double floor_x = 0.0;
  double floor_y = 0.0;
  MaronnaResult state;
  simd::MaronnaPass pass;
};

// Step 1: invert the 2x2 scatter into the next pass's inputs. False when the
// iteration ends before that pass: the pass budget is spent or the scatter
// is singular or not finite.
bool invert(FixedPoint& fp, const MaronnaConfig& config) {
  const MaronnaResult& s = fp.state;
  if (s.iterations >= config.max_iterations) return false;
  const double det = s.scatter_xx * s.scatter_yy - s.scatter_xy * s.scatter_xy;
  if (det <= 0.0 || !std::isfinite(det)) return false;
  fp.pass.mx = s.location_x;
  fp.pass.my = s.location_y;
  fp.pass.ixx = s.scatter_yy / det;
  fp.pass.iyy = s.scatter_xx / det;
  fp.pass.ixy = -s.scatter_xy / det;
  return true;
}

// Cold start from coordinatewise medians and MADs, zero covariance, then
// step 1 for the first pass. False when the pair takes no pass; finish()
// then gives its result (correlation 0 when both sides are flat).
bool start(FixedPoint& fp, const double* x, const double* y, const RobustScale& sx,
           const RobustScale& sy, const MaronnaConfig& config) {
  fp = {};
  fp.pass.x = x;
  fp.pass.y = y;
  fp.state.location_x = sx.median;
  fp.state.location_y = sy.median;
  // Degenerate dispersion (e.g. a constant return window): fall back to a
  // tiny floor so the iteration is defined; if both are flat, report 0.
  if (sx.mad <= 0.0 && sy.mad <= 0.0) return false;
  fp.floor_x = sx.mad > 0.0 ? 0.0 : 1e-12;
  fp.floor_y = sy.mad > 0.0 ? 0.0 : 1e-12;
  fp.state.scatter_xx = sx.mad * sx.mad + fp.floor_x;
  fp.state.scatter_yy = sy.mad * sy.mad + fp.floor_y;
  return invert(fp, config);
}

// Step 3: apply one pass's sums (the kernel computes the Huber weight on the
// Mahalanobis distance and the six weighted sums in a single sweep). False
// when the iteration ends here: no weight left (the pass is dropped) or the
// scatter converged.
bool apply(FixedPoint& fp, const simd::WeightedSums& s, std::size_t n,
           const MaronnaConfig& config) {
  if (s.sw <= 0.0) return false;
  MaronnaResult& out = fp.state;
  const auto nd = static_cast<double>(n);
  const double new_mx = s.swx / s.sw;
  const double new_my = s.swy / s.sw;
  // Scatter normalized by n (Maronna's fixed-point with Huber rho keeps the
  // estimate consistent up to a scale factor that cancels in correlation).
  const double new_vxx = s.sxx / nd + fp.floor_x;
  const double new_vyy = s.syy / nd + fp.floor_y;
  const double new_vxy = s.sxy / nd;

  const double scale =
      std::max({std::abs(out.scatter_xx), std::abs(out.scatter_yy), 1e-300});
  const double delta = std::max({std::abs(new_vxx - out.scatter_xx),
                                 std::abs(new_vyy - out.scatter_yy),
                                 std::abs(new_vxy - out.scatter_xy)}) /
                       scale;
  out.location_x = new_mx;
  out.location_y = new_my;
  out.scatter_xx = new_vxx;
  out.scatter_yy = new_vyy;
  out.scatter_xy = new_vxy;
  ++out.iterations;
  out.converged = delta < config.tolerance;
  return !out.converged;
}

// The correlation of the final scatter, stored and returned.
double finish(MaronnaResult& out) {
  const double denom = std::sqrt(out.scatter_xx * out.scatter_yy);
  if (denom <= 0.0 || !std::isfinite(denom)) {
    out.correlation = 0.0;
  } else {
    out.correlation = std::clamp(out.scatter_xy / denom, -1.0, 1.0);
  }
  return out.correlation;
}

// Runs a started pair's remaining passes one at a time.
void run_alone(FixedPoint& fp, std::size_t n, const MaronnaConfig& config) {
  const auto one_pass = simd::kernels().maronna_weighted_sums;
  for (;;) {
    const simd::MaronnaPass& p = fp.pass;
    const auto sums =
        one_pass(p.x, p.y, n, p.mx, p.my, p.ixx, p.ixy, p.iyy, config.huber_k2);
    if (!apply(fp, sums, n, config) || !invert(fp, config)) return;
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
  FixedPoint fp;
  if (start(fp, x, y, sx, sy, config)) run_alone(fp, n, config);
  finish(fp.state);
  return fp.state;
}

void maronna_correlations(const double* windows, const RobustScale* scales,
                          std::size_t n, const PairIndex* pairs, std::size_t count,
                          const MaronnaConfig& config, double* out) {
  MM_ASSERT_MSG(n >= 2, "maronna needs n >= 2");
  const auto two_passes = simd::kernels().maronna_weighted_sums_pair;
  FixedPoint slot[2];
  std::size_t owner[2] = {0, 0};  // the pair index each slot computes
  std::size_t next = 0;
  // Starts the next pair that takes a pass in slot s; pairs that take none
  // are finished on the spot. False when the batch has no pair left.
  const auto refill = [&](int s) {
    while (next < count) {
      const std::size_t k = next++;
      const auto [i, j] = pairs[k];
      if (start(slot[s], windows + i * n, windows + j * n, scales[i], scales[j],
                config)) {
        owner[s] = k;
        return true;
      }
      out[k] = finish(slot[s].state);
    }
    return false;
  };

  bool live[2] = {refill(0), false};
  live[1] = live[0] && refill(1);
  // Two pairs in flight: one paired pass per step; a slot whose pair exits
  // is refilled at once.
  while (live[0] && live[1]) {
    const auto sums = two_passes(slot[0].pass, slot[1].pass, n, config.huber_k2);
    for (int s = 0; s < 2; ++s) {
      if (apply(slot[s], sums[s], n, config) && invert(slot[s], config)) continue;
      out[owner[s]] = finish(slot[s].state);
      live[s] = refill(s);
    }
  }
  // At most one pair is left: the one-pair kernel finishes it.
  for (int s = 0; s < 2; ++s) {
    if (!live[s]) continue;
    run_alone(slot[s], n, config);
    out[owner[s]] = finish(slot[s].state);
  }
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
