// Maronna robust correlation (bivariate M-estimator of scatter).
//
// Implements the pairwise robust correlation the paper attributes to Maronna
// (1976) and to Chilson et al.'s parallel robust-correlation work [14]: a
// bivariate M-estimator of location and scatter computed by iterative
// reweighting, using a Huber-type weight function. Observations far from the
// current location (in Mahalanobis distance) are smoothly downweighted, so a
// handful of bad ticks cannot swing the estimate the way they swing Pearson.
//
// Two entry points into the same fixed-point map:
//
//   * maronna_estimate   — cold start from coordinatewise medians/MADs. This
//     is the batch estimator. A median/MAD pair depends on one sample only,
//     so sweeps over many pairs compute each symbol's robust_scale once and
//     pass it to the scale-seeded overload; the pairwise overload computes
//     both scales itself (two nth_element selections per side).
//   * maronna_reestimate — warm start from a previous converged estimate on
//     an overlapping window (the sliding-window engines advance one return
//     per step, so the previous fixed point is an excellent seed). Skips the
//     median/MAD work and shortens the tail with Anderson extrapolation and
//     a distance-bound early stop: typically ~5 map evaluations instead of
//     ~9 plus initialization. Falls back to cold when the seed is unusable.
//
// WarmMaronna packages the per-pair warm-start bookkeeping (seed validity,
// periodic cold-restart cadence, degenerate-window fallback) for the
// correlation engines; see DESIGN.md "Correlation kernel" for the accuracy
// contract.
//
// The pairwise estimates do NOT assemble into a positive semi-definite
// matrix (the paper's §IV caveat); see psd.hpp for the repair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mm::stats {

struct MaronnaConfig {
  // Huber tuning constant on the Mahalanobis distance (in 2 dimensions,
  // d² ~ chi²(2); k² = 5.99 is the 95% quantile).
  double huber_k2 = 5.99;
  // Convergence threshold on the max relative change of scatter entries.
  double tolerance = 1e-6;
  int max_iterations = 50;
};

struct MaronnaResult {
  double correlation = 0.0;
  double location_x = 0.0;
  double location_y = 0.0;
  double scatter_xx = 0.0;
  double scatter_xy = 0.0;
  double scatter_yy = 0.0;
  // Measured linear-convergence ratio |step_k|/|step_{k-1}| of the fixed
  // point (< 0 when never measured). Diagnostic: the warm path converges in
  // ~log(seed error / tolerance) / log(1/contraction) map evaluations.
  double contraction = -1.0;
  int iterations = 0;
  bool converged = false;
};

// Reusable scratch for robust_scale's selections. Routing the copy and the
// deviation buffer through one caller-owned scratch makes repeated calls
// allocation-free in steady state (capacity is grown once, then reused).
struct MaronnaScratch {
  std::vector<double> values;  // permutable copy for the median selection
  std::vector<double> dev;     // |v - median| buffer for the MAD
};

// One sample's cold-start seed: its median and its MAD scaled to be
// consistent for the normal (1.4826 · median |v − median|). Both are exact
// order statistics, so the values do not depend on the input order or on
// how the selection permutes the scratch copy. n must be >= 1.
struct RobustScale {
  double median = 0.0;
  double mad = 0.0;
};
RobustScale robust_scale(const double* v, std::size_t n, MaronnaScratch& scratch);

// Full estimator output. n must be >= 2; degenerate inputs (zero dispersion)
// yield correlation 0.
//
// The scale-seeded overload is the cold start itself: it iterates from
// sx/sy, which must be robust_scale(x, n) and robust_scale(y, n) — a matrix
// sweep computes them once per symbol per step instead of once per pair. It
// never allocates. The scratch-taking overload computes both scales and
// delegates, so the two agree bit for bit; it is allocation-free once the
// scratch capacity has grown to n. The convenience overload allocates a
// local scratch per call.
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const RobustScale& sx, const RobustScale& sy,
                               const MaronnaConfig& config);
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config,
                               MaronnaScratch& scratch);
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config = {});

// Warm-started re-estimate: seeds the fixed-point iteration from `seed`
// (location + 2×2 scatter of a previous converged estimate on an overlapping
// window) instead of medians/MADs. The iteration map is identical to the
// cold start's on non-degenerate data, so both converge to the same unique
// fixed point; the results agree to within the convergence tolerance. If the
// seed is unusable (non-finite, non-positive-definite, or not converged) the
// call transparently falls back to maronna_estimate.
MaronnaResult maronna_reestimate(const double* x, const double* y, std::size_t n,
                                 const MaronnaResult& seed,
                                 const MaronnaConfig& config,
                                 MaronnaScratch& scratch);
MaronnaResult maronna_reestimate(const double* x, const double* y, std::size_t n,
                                 const MaronnaResult& seed,
                                 const MaronnaConfig& config = {});

// True when the sample's MAD is exactly zero (a majority of values coincide).
// Such windows make the cold start engage its dispersion floors, a different
// iteration map than the floor-free warm path — warm starts must not be used
// there. One Boyer–Moore majority pass, O(n), no allocation.
bool mad_is_zero(const double* v, std::size_t n);

// Default cold-restart cadence for warm-started engines: every this many
// steps each pair re-seeds from medians/MADs, bounding any drift a long warm
// chain could accumulate.
inline constexpr int kWarmRestartInterval = 64;

// Per-pair warm-start state for a sliding-window engine. One instance covers
// `pairs` slots; the engine maps its (i, j) pairs onto slot indices. Call
// advance() once per window step, then estimate() per pair with contiguous
// window views. Results are memoized per step, so repeated queries of the
// same pair in one step return the identical value.
class WarmMaronna {
 public:
  WarmMaronna(std::size_t pairs, const MaronnaConfig& config,
              int restart_interval = kWarmRestartInterval);

  // Start a new window step (invalidates the per-step memo).
  void advance() { ++step_; }

  // Robust correlation of the pair occupying `slot`, over the window views
  // x[0..n) / y[0..n). `degenerate` must be `mad_is_zero(x) || mad_is_zero(y)`
  // (or a conservative true): the engines compute the per-symbol majority
  // scan once per step instead of once per pair, so this class trusts the
  // flag rather than rescanning. A wrong `false` on a MAD-degenerate window
  // would let a warm chain iterate a different (floor-free) map than the
  // batch estimator's and void the accuracy contract.
  double estimate(std::size_t slot, const double* x, const double* y,
                  std::size_t n, bool degenerate = false);

  // Diagnostics: how many estimates since construction ran warm vs cold.
  std::uint64_t warm_calls() const { return warm_calls_; }
  std::uint64_t cold_calls() const { return cold_calls_; }

 private:
  MaronnaConfig config_;
  int restart_interval_;
  std::int64_t step_ = 0;
  std::vector<MaronnaResult> state_;
  std::vector<std::int64_t> cold_step_;      // step of the last cold start
  std::vector<std::int64_t> computed_step_;  // memo: step of the cached value
  std::vector<std::uint8_t> seedable_;
  MaronnaScratch scratch_;  // cold-start median/MAD buffers, reused per pair
  std::uint64_t warm_calls_ = 0;
  std::uint64_t cold_calls_ = 0;
};

// Correlation-only conveniences.
double maronna(const double* x, const double* y, std::size_t n,
               const MaronnaConfig& config = {});
double maronna(const std::vector<double>& x, const std::vector<double>& y,
               const MaronnaConfig& config = {});

}  // namespace mm::stats
