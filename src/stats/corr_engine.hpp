// Market-wide correlation calculator.
//
// This is the enabling component of the paper (§II): producing the full
// n × n correlation matrix over a sliding M-return window, every ∆s interval,
// in an online fashion. Pearson entries come from ReturnWindows' O(1)
// incremental sums (full matrices via the blocked pearson_matrix kernel);
// Maronna entries re-estimate each pair's 2×2 robust scatter over the window
// (the expensive part the paper parallelizes [14]), each starting from the
// two symbols' medians/MADs, computed once per step.
//
// The "Parallel Correlation Engine" box of Fig. 1 is the pipeline's
// correlation group node (engine::make_correlation_stage): every member runs
// one CorrelationCalculator and the pairs are split into stats::block_begin
// blocks across the members.
#pragma once

#include <vector>

#include "stats/correlation.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"

namespace mm::stats {

struct CorrEngineConfig {
  Ctype type = Ctype::pearson;
  std::size_t window = 100;  // the paper's M
  MaronnaConfig maronna{};
};

// Single-threaded engine: push one return per symbol per interval, then read
// correlations or the full matrix.
class CorrelationCalculator {
 public:
  CorrelationCalculator(const CorrEngineConfig& config, std::size_t symbols);

  void push(const std::vector<double>& returns);
  bool ready() const { return windows_.ready(); }
  std::size_t symbols() const { return windows_.symbols(); }
  const CorrEngineConfig& config() const { return config_; }

  // Correlation of one pair at the current step (requires ready()): the
  // configured measure, composed from the two accessors below.
  double pair(std::size_t i, std::size_t j) const;

  // The two measures separately (both require ready()). pearson() is the
  // incremental estimate (Pearson and Combined calculators); robust() is
  // Maronna over the unwrapped windows (Maronna and Combined calculators).
  // It starts from the two symbols' step-scoped robust scales and equals the
  // pairwise maronna_estimate bit for bit. robust_into is the batch form:
  // out[k] = robust(pairs[k].i, pairs[k].j) for k in [0, count), computed
  // two pairs per pass by maronna_correlations. The pipeline's correlation
  // stage, the Approach-3 series and matrix_into go through it.
  double pearson(std::size_t i, std::size_t j) const { return windows_.pearson(i, j); }
  double robust(std::size_t i, std::size_t j) const;
  void robust_into(const PairIndex* pairs, std::size_t count, double* out) const;

  // Full matrix at the current step, unit diagonal. matrix_into reuses the
  // caller's storage (resizing only when the symbol count changed), so a
  // steady-state loop is allocation-free; matrix() is the allocating
  // convenience form. Robust entries are swept tile-major (64-symbol tiles,
  // one robust_into batch per tile) so the window rows a tile reads stay
  // cache-resident at thousands of symbols; every entry equals pair(i, j).
  // The matrix is not PSD-repaired:
  // a caller that needs that calls nearest_psd_correlation.
  void matrix_into(SymMatrix& out) const;
  SymMatrix matrix() const;

 private:
  // Unwrap every symbol's ring buffer into the contiguous arena, once per
  // step, shared by all pair estimates of the step; also refreshes the
  // per-symbol robust scales.
  void ensure_unwrapped() const;
  const double* window_view(std::size_t symbol) const {
    return unwrap_.data() + symbol * config_.window;
  }

  CorrEngineConfig config_;
  ReturnWindows windows_;
  // Step-scoped caches: pair() is logically const — these only memoize work
  // derived from the current window state.
  mutable std::vector<double> unwrap_;  // [symbol * window], oldest -> newest
  mutable std::size_t unwrap_step_ = 0;  // windows_.steps() the arena reflects
  mutable std::vector<RobustScale> scale_;  // per-symbol, robust path only
  mutable MaronnaScratch maronna_scratch_;  // robust_scale's selection buffers
  // matrix_into's per-tile robust batch: the tile's pairs and their values.
  mutable std::vector<PairIndex> tile_pairs_;
  mutable std::vector<double> tile_values_;
};

}  // namespace mm::stats
