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

// The reweighting fixed point, shared verbatim by the cold and warm entry
// points so that both iterate the exact same map (bit-for-bit) and therefore
// agree at convergence. `out` arrives with location/scatter seeded; the
// floors are carried through every iteration exactly as the cold start
// historically did (they are 0 except for MAD-degenerate cold starts).
//
// `warm` (the re-estimate path only) enables two refinements that shorten
// the geometric tail without touching the answer:
//
//   * Anderson(1) residual extrapolation — x_{k+1} = F(x_k) − θ·(F(x_k) −
//     F(x_{k−1})) with θ from a secant fit on the last two scale-normalized
//     residuals, accepted only onto a positive-definite iterate. For the
//     nearly linear map this cancels the dominant error mode, which matters
//     most for the slowly contracting pairs (q ≈ 0.3–0.5).
//   * A distance-bound early stop — the just-accepted map value sits within
//     delta·q/(1−q) of the fixed point, an order of magnitude tighter than
//     delta itself near convergence. q is the freshest observed residual
//     ratio clamped to [0.05, 0.5], and the bound must clear half the
//     tolerance. A post-extrapolation ratio understates the map's own
//     contraction, so the clamp bounds the worst-case stop at delta < 9.5·tol
//     — i.e. within a small multiple of the tolerance of the fixed point,
//     far inside the warm-vs-batch agreement the golden tests assert.
//
// Cold starts use neither, keeping the batch estimator bit-for-bit
// reproducible; warm answers land within the same tolerance of the same
// fixed point either way — only the map-evaluation count changes.
void iterate_fixed_point(const double* x, const double* y, std::size_t n,
                         double floor_x, double floor_y,
                         const MaronnaConfig& config, bool warm,
                         MaronnaResult& out) {
  double mx = out.location_x;
  double my = out.location_y;
  double vxx = out.scatter_xx;
  double vxy = out.scatter_xy;
  double vyy = out.scatter_yy;

  const auto nd = static_cast<double>(n);
  double prev_delta = -1.0;  // previous step size; <0 until one full step seen
  double measured_q = -1.0;  // freshest plain-step |step_k|/|step_{k-1}|
  // Anderson(1) history: previous map value F(x_{k-1}) and its residual,
  // components scale-normalized so locations (data units) and scatter
  // (units²) mix meaningfully in the secant inner products.
  bool have_prev_f = false;
  double pf_mx = 0.0, pf_my = 0.0, pf_vxx = 0.0, pf_vxy = 0.0, pf_vyy = 0.0;
  double pr[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
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
    const double step_mx = new_mx - mx;
    const double step_my = new_my - my;
    const double step_vxx = new_vxx - vxx;
    const double step_vyy = new_vyy - vyy;
    const double step_vxy = new_vxy - vxy;
    mx = new_mx;
    my = new_my;
    vxx = new_vxx;
    vyy = new_vyy;
    vxy = new_vxy;
    out.iterations = iter + 1;
    // Observed residual contraction ratio (cold runs measure but never act
    // on it, keeping their iterates bit-identical to the historical loop).
    // Across an extrapolated step this understates the map's own contraction;
    // the clamp below bounds how lenient that can make the stopping rule.
    const double q = prev_delta > 0.0 ? delta / prev_delta : -1.0;
    if (q > 0.0 && q < 1.0) measured_q = q;
    if (delta < config.tolerance) {
      out.converged = true;
      break;
    }
    if (warm && measured_q > 0.0) {
      // Distance bound: the accepted iterate is within delta·q/(1−q) of the
      // fixed point. Clamp q away from 0 (a transiently tiny ratio must not
      // license a sloppy stop) and away from 1 (keep the bound finite), and
      // demand half the tolerance for safety.
      const double qc = std::clamp(measured_q, 0.05, 0.5);
      if (delta * qc / (1.0 - qc) < 0.5 * config.tolerance) {
        out.converged = true;
        break;
      }
    }
    if (warm) {
      // Scale-normalized residual of this evaluation.
      const double ls = std::sqrt(scale);
      const double r[5] = {step_mx / ls, step_my / ls, step_vxx / scale,
                           step_vxy / scale, step_vyy / scale};
      if (have_prev_f) {
        double num = 0.0, den = 0.0;
        for (int c = 0; c < 5; ++c) {
          const double dr = r[c] - pr[c];
          num += r[c] * dr;
          den += dr * dr;
        }
        if (den > 1e-300) {
          const double theta = std::clamp(num / den, -4.0, 4.0);
          // Accept the extrapolated iterate only if positive definite;
          // otherwise keep the plain map value.
          const double axx = vxx - theta * (vxx - pf_vxx);
          const double ayy = vyy - theta * (vyy - pf_vyy);
          const double axy = vxy - theta * (vxy - pf_vxy);
          if (axx > 0.0 && ayy > 0.0 && axx * ayy - axy * axy > 0.0) {
            mx -= theta * (mx - pf_mx);
            my -= theta * (my - pf_my);
            vxx = axx;
            vyy = ayy;
            vxy = axy;
          }
        }
      }
      pf_mx = new_mx;
      pf_my = new_my;
      pf_vxx = new_vxx;
      pf_vxy = new_vxy;
      pf_vyy = new_vyy;
      for (int c = 0; c < 5; ++c) pr[c] = r[c];
      have_prev_f = true;
    }
    prev_delta = delta;
  }
  if (measured_q > 0.0) out.contraction = measured_q;

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

// A warm seed must be a converged, finite, positive-definite estimate —
// anything else re-enters through the cold start.
bool usable_seed(const MaronnaResult& seed) {
  if (!seed.converged) return false;
  if (!std::isfinite(seed.location_x) || !std::isfinite(seed.location_y)) return false;
  if (!std::isfinite(seed.scatter_xx) || !std::isfinite(seed.scatter_xy) ||
      !std::isfinite(seed.scatter_yy))
    return false;
  if (seed.scatter_xx <= 0.0 || seed.scatter_yy <= 0.0) return false;
  return seed.scatter_xx * seed.scatter_yy - seed.scatter_xy * seed.scatter_xy > 0.0;
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
  iterate_fixed_point(x, y, n, floor_x, floor_y, config, /*warm=*/false, out);
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

MaronnaResult maronna_reestimate(const double* x, const double* y, std::size_t n,
                                 const MaronnaResult& seed,
                                 const MaronnaConfig& config,
                                 MaronnaScratch& scratch) {
  MM_ASSERT_MSG(n >= 2, "maronna needs n >= 2");
  if (!usable_seed(seed)) return maronna_estimate(x, y, n, config, scratch);

  MaronnaResult out;
  out.location_x = seed.location_x;
  out.location_y = seed.location_y;
  out.scatter_xx = seed.scatter_xx;
  out.scatter_xy = seed.scatter_xy;
  out.scatter_yy = seed.scatter_yy;
  out.contraction = seed.contraction;
  // Floor-free map: callers must not warm-start MAD-degenerate windows (see
  // mad_is_zero), so this is the same map the cold start iterates there.
  iterate_fixed_point(x, y, n, /*floor_x=*/0.0, /*floor_y=*/0.0, config,
                      /*warm=*/true, out);
  return out;
}

MaronnaResult maronna_reestimate(const double* x, const double* y, std::size_t n,
                                 const MaronnaResult& seed,
                                 const MaronnaConfig& config) {
  MaronnaScratch scratch;
  return maronna_reestimate(x, y, n, seed, config, scratch);
}

bool mad_is_zero(const double* v, std::size_t n) {
  // MAD(v) == 0  ⟺  strictly more than half of the values equal the median
  // ⟺ a majority element exists. Boyer–Moore: find the only possible
  // majority candidate, then count it.
  double candidate = v[0];
  std::size_t votes = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (votes == 0) {
      candidate = v[i];
      votes = 1;
    } else if (v[i] == candidate) {
      ++votes;
    } else {
      --votes;
    }
  }
  if (votes == 0) return false;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] == candidate) ++count;
  return count > n / 2;
}

WarmMaronna::WarmMaronna(std::size_t pairs, const MaronnaConfig& config,
                         int restart_interval)
    : config_(config),
      restart_interval_(restart_interval),
      state_(pairs),
      cold_step_(pairs, -1),
      computed_step_(pairs, -1),
      seedable_(pairs, 0) {
  MM_ASSERT_MSG(restart_interval >= 1, "warm restart interval must be >= 1");
}

double WarmMaronna::estimate(std::size_t slot, const double* x, const double* y,
                             std::size_t n, bool degenerate) {
  MM_ASSERT(slot < state_.size());
  // Memoized: the same pair queried twice in one step must see one value.
  if (computed_step_[slot] == step_) return state_[slot].correlation;

  // MAD-degenerate windows engage the cold start's dispersion floors — a
  // different iteration map — so they always recompute cold and never seed.
  // The caller supplies the flag (computed per symbol per step, see the
  // header contract) instead of this class rescanning per pair.
  MaronnaResult res;
  if (!degenerate && seedable_[slot] &&
      step_ - cold_step_[slot] < restart_interval_) {
    res = maronna_reestimate(x, y, n, state_[slot], config_, scratch_);
    ++warm_calls_;
    if (!res.converged) {
      // Warm chain went stale (e.g. an abrupt regime change): restart cold so
      // the estimate cannot drift away from the batch answer.
      res = maronna_estimate(x, y, n, config_, scratch_);
      cold_step_[slot] = step_;
      ++cold_calls_;
    }
  } else {
    res = maronna_estimate(x, y, n, config_, scratch_);
    cold_step_[slot] = step_;
    ++cold_calls_;
  }

  state_[slot] = res;
  computed_step_[slot] = step_;
  seedable_[slot] = !degenerate && res.converged && res.scatter_xx > 0.0 &&
                    res.scatter_yy > 0.0 &&
                    res.scatter_xx * res.scatter_yy -
                            res.scatter_xy * res.scatter_xy >
                        0.0;
  return res.correlation;
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
