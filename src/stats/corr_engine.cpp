#include "stats/corr_engine.hpp"

#include <algorithm>

namespace mm::stats {
namespace {

// Tile edge (symbols) of matrix_into's robust sweep: a tile reads at most
// 2·kPairTile window rows of the unwrap arena.
constexpr std::size_t kPairTile = 64;

}  // namespace

CorrelationCalculator::CorrelationCalculator(const CorrEngineConfig& config,
                                             std::size_t symbols)
    : config_(config),
      // Cross sums are only needed for Pearson (and Combined's Pearson half).
      windows_(symbols, config.window, config.type != Ctype::maronna),
      // The unwrap arena and the per-symbol robust scales serve the
      // Maronna/Combined per-pair kernels; pure Pearson engines never read them.
      unwrap_(config.type == Ctype::pearson ? 0 : symbols * config.window),
      scale_(config.type == Ctype::pearson ? 0 : symbols) {}

void CorrelationCalculator::push(const std::vector<double>& returns) {
  windows_.push(returns);
}

void CorrelationCalculator::ensure_unwrapped() const {
  if (unwrap_step_ == windows_.steps() && unwrap_step_ > 0) return;
  windows_.unwrap_all(unwrap_.data());
  // Per-symbol medians/MADs, computed once per step: every pair starts from
  // its two symbols' scales instead of re-selecting them (n selections per
  // step instead of four per pair).
  for (std::size_t s = 0; s < windows_.symbols(); ++s)
    scale_[s] = robust_scale(window_view(s), windows_.window(), maronna_scratch_);
  unwrap_step_ = windows_.steps();
}

double CorrelationCalculator::pair(std::size_t i, std::size_t j) const {
  switch (config_.type) {
    case Ctype::pearson:
      return pearson(i, j);
    case Ctype::maronna:
      return robust(i, j);
    case Ctype::combined:
      return combine(pearson(i, j), robust(i, j));
  }
  MM_ASSERT_MSG(false, "unreachable Ctype");
  return 0.0;
}

double CorrelationCalculator::robust(std::size_t i, std::size_t j) const {
  MM_ASSERT_MSG(ready(), "correlation requested before window is full");
  MM_ASSERT_MSG(config_.type != Ctype::pearson,
                "robust() needs a Maronna or Combined calculator");
  ensure_unwrapped();
  const double* x = window_view(i);
  const double* y = window_view(j);
  const std::size_t m = windows_.window();
  return maronna_estimate(x, y, m, scale_[i], scale_[j], config_.maronna).correlation;
}

void CorrelationCalculator::robust_into(const PairIndex* pairs, std::size_t count,
                                        double* out) const {
  MM_ASSERT_MSG(ready(), "correlation requested before window is full");
  MM_ASSERT_MSG(config_.type != Ctype::pearson,
                "robust_into() needs a Maronna or Combined calculator");
  ensure_unwrapped();
  maronna_correlations(unwrap_.data(), scale_.data(), windows_.window(), pairs, count,
                       config_.maronna, out);
}

void CorrelationCalculator::matrix_into(SymMatrix& out) const {
  const std::size_t n = symbols();
  if (out.size() != n) out = SymMatrix(n, 0.0);
  if (config_.type == Ctype::pearson) {
    windows_.pearson_matrix(out);
  } else {
    out.fill_diagonal(1.0);
    // Tile-major sweep: each tile touches at most 2·kPairTile window rows,
    // keeping the unwrap arena reads cache-resident at large n.
    for (std::size_t bi = 0; bi < n; bi += kPairTile) {
      const std::size_t iend = std::min(bi + kPairTile, n);
      for (std::size_t bj = bi; bj < n; bj += kPairTile) {
        const std::size_t jend = std::min(bj + kPairTile, n);
        tile_pairs_.clear();
        for (std::size_t i = bi; i < iend; ++i)
          for (std::size_t j = std::max(i + 1, bj); j < jend; ++j)
            tile_pairs_.push_back({static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(j)});
        tile_values_.resize(tile_pairs_.size());
        robust_into(tile_pairs_.data(), tile_pairs_.size(), tile_values_.data());
        for (std::size_t k = 0; k < tile_pairs_.size(); ++k) {
          const auto [i, j] = tile_pairs_[k];
          const double r = tile_values_[k];
          out.set(i, j, config_.type == Ctype::combined ? combine(pearson(i, j), r) : r);
        }
      }
    }
  }
}

SymMatrix CorrelationCalculator::matrix() const {
  SymMatrix m;
  matrix_into(m);
  return m;
}

}  // namespace mm::stats
