// Maronna robust correlation (bivariate M-estimator of scatter).
//
// Implements the pairwise robust correlation the paper attributes to Maronna
// (1976) and to Chilson et al.'s parallel robust-correlation work [14]: a
// bivariate M-estimator of location and scatter computed by iterative
// reweighting, using a Huber-type weight function. Observations far from the
// current location (in Mahalanobis distance) are smoothly downweighted, so a
// handful of bad ticks cannot swing the estimate the way they swing Pearson.
//
// maronna_estimate starts cold from coordinatewise medians/MADs. A median/MAD
// pair depends on one sample only, so sweeps over many pairs compute each
// symbol's robust_scale once and pass it to the scale-seeded overload; the
// pairwise overload computes both scales itself (two nth_element selections
// per side).
//
// The pairwise estimates do NOT assemble into a positive semi-definite
// matrix (the paper's §IV caveat); see psd.hpp for the repair.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/sym_matrix.hpp"

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

// Cold Maronna correlations of a batch of pairs over one window arena: the
// n-sample window of symbol s starts at windows + s * n and its seed is
// scales[s] (robust_scale of that window). out[k] is the correlation of
// symbols pairs[k].i and pairs[k].j, equal bit for bit to the scale-seeded
// maronna_estimate's. It keeps two pairs in flight, runs their
// passes through the kernel table's paired entry and starts the next pair
// in a slot as soon as its pair exits; a lone last pair runs on the one-pair
// kernel. n must be >= 2. Never allocates.
void maronna_correlations(const double* windows, const RobustScale* scales,
                          std::size_t n, const PairIndex* pairs, std::size_t count,
                          const MaronnaConfig& config, double* out);

// Correlation-only conveniences.
double maronna(const double* x, const double* y, std::size_t n,
               const MaronnaConfig& config = {});
double maronna(const std::vector<double>& x, const std::vector<double>& y,
               const MaronnaConfig& config = {});

}  // namespace mm::stats
