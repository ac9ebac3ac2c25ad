#include "stats/corr_engine.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "stats/psd.hpp"

namespace mm::stats {
namespace {

// Warm-start state is only materialized for the robust measures.
std::size_t warm_slots(const CorrEngineConfig& config, std::size_t symbols) {
  if (!config.warm_start || config.type == Ctype::pearson) return 0;
  return symbols * (symbols - 1) / 2;
}

// The unwrap arena serves the Maronna/Combined per-pair kernels; pure
// Pearson engines never read it.
std::size_t arena_size(const CorrEngineConfig& config, std::size_t symbols) {
  return config.type == Ctype::pearson ? 0 : symbols * config.window;
}

// Per-symbol cold-start seeds are only kept by cold robust calculators (the
// warm path seeds from its previous estimates instead).
std::size_t scale_slots(const CorrEngineConfig& config, std::size_t symbols) {
  return config.type == Ctype::pearson || config.warm_start ? 0 : symbols;
}

// Tag for the shard point-to-point exchange on the engine's private
// duplicated communicator (no other traffic shares that namespace).
constexpr int kShardTag = 0;

void pack_doubles(std::vector<std::uint8_t>& buf, const double* vals,
                  std::size_t count) {
  buf.resize(count * sizeof(double));
  std::memcpy(buf.data(), vals, buf.size());
}

}  // namespace

CorrelationCalculator::CorrelationCalculator(const CorrEngineConfig& config,
                                             std::size_t symbols)
    : config_(config),
      // Cross sums are only needed for Pearson (and Combined's Pearson half).
      windows_(symbols, config.window, config.type != Ctype::maronna),
      unwrap_(arena_size(config, symbols)),
      scale_(scale_slots(config, symbols)),
      warm_(warm_slots(config, symbols), config.maronna,
            config.warm_restart_interval) {}

void CorrelationCalculator::push(const std::vector<double>& returns) {
  windows_.push(returns);
  warm_.advance();
}

void CorrelationCalculator::ensure_unwrapped() const {
  if (unwrap_step_ == windows_.steps() && unwrap_step_ > 0) return;
  windows_.unwrap_all(unwrap_.data());
  if (config_.warm_start) {
    // Per-symbol MAD-degeneracy flags, computed once per step so the warm
    // estimator doesn't rescan the windows for every pair (n scans vs n²/2).
    mad_zero_.resize(windows_.symbols());
    for (std::size_t s = 0; s < windows_.symbols(); ++s)
      mad_zero_[s] = mad_is_zero(window_view(s), windows_.window()) ? 1 : 0;
  } else {
    // Per-symbol medians/MADs, computed once per step: every cold pair
    // starts from its two symbols' scales instead of re-selecting them
    // (n selections per step instead of four per pair).
    for (std::size_t s = 0; s < windows_.symbols(); ++s)
      scale_[s] = robust_scale(window_view(s), windows_.window(), maronna_scratch_);
  }
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
  if (config_.warm_start) {
    const bool degenerate = mad_zero_[i] != 0 || mad_zero_[j] != 0;
    return warm_.estimate(pair_slot(symbols(), i, j), x, y, m, degenerate);
  }
  return maronna_estimate(x, y, m, scale_[i], scale_[j], config_.maronna).correlation;
}

void CorrelationCalculator::matrix_into(SymMatrix& out) const {
  const std::size_t n = symbols();
  if (out.size() != n) out = SymMatrix(n, 0.0);
  if (config_.type == Ctype::pearson) {
    windows_.pearson_matrix(out);
  } else {
    out.fill_diagonal(1.0);
    // Tile-major sweep (same order the parallel engine shards): each tile
    // touches at most ~2·tile window rows, keeping the unwrap arena reads
    // cache-resident at large n.
    const std::size_t tile =
        config_.pair_tile == 0 ? n : std::min(config_.pair_tile, n);
    for (std::size_t bi = 0; bi < n; bi += tile) {
      const std::size_t iend = std::min(bi + tile, n);
      for (std::size_t bj = bi; bj < n; bj += tile) {
        const std::size_t jend = std::min(bj + tile, n);
        for (std::size_t i = bi; i < iend; ++i)
          for (std::size_t j = std::max(i + 1, bj); j < jend; ++j)
            out.set(i, j, pair(i, j));
      }
    }
  }
  // Opt-in O(n³) repair; allocates inside the eigensolver by design.
  if (config_.repair_psd && !is_psd(out)) out = nearest_psd_correlation(out);
}

SymMatrix CorrelationCalculator::matrix() const {
  SymMatrix m;
  matrix_into(m);
  return m;
}

ParallelCorrelationEngine::ParallelCorrelationEngine(mpi::Comm& comm,
                                                     const CorrEngineConfig& config,
                                                     std::size_t symbols,
                                                     obs::Registry* registry)
    : comm_(comm),
      dup_(comm.duplicate()),
      calc_(config, symbols),
      pairs_(tiled_pairs(symbols, config.pair_tile)) {
  obs::Registry& reg = registry != nullptr ? *registry : obs::Registry::global();
  h_broadcast_ = &reg.histogram("corr.step.broadcast_ns");
  h_compute_ = &reg.histogram("corr.step.compute_ns");
  h_exchange_ = &reg.histogram("corr.step.exchange_ns");
  h_assemble_ = &reg.histogram("corr.step.assemble_ns");
  // Contiguous block shards, balanced to within one pair.
  const auto world = static_cast<std::size_t>(comm.size());
  offsets_.resize(world + 1);
  for (std::size_t r = 0; r <= world; ++r)
    offsets_[r] = block_begin(pairs_.size(), world, r);
  mine_.reserve(local_pair_count());
  returns_.resize(symbols);
}

const SymMatrix& ParallelCorrelationEngine::step(const std::vector<double>& returns) {
  const std::size_t n = calc_.symbols();

  // Serial fast path: no transport, no staging — push and fill the member
  // matrix in place. Allocation-free in steady state (test_corr_alloc.cpp).
  if (comm_.size() == 1) {
    calc_.push(returns);
    if (!calc_.ready()) return matrix_;
    obs::ObsSpan span(nullptr, "corr.compute", h_compute_);
    calc_.matrix_into(matrix_);
    return matrix_;
  }

  // Rank 0's return vector is authoritative; everyone mirrors the windows so
  // no window state ever needs to move.
  {
    obs::ObsSpan span(nullptr, "corr.broadcast", h_broadcast_);
    if (comm_.rank() == 0) pack_doubles(bcast_buf_, returns.data(), n);
    dup_.bcast_bytes(bcast_buf_, 0);
    MM_ASSERT_MSG(bcast_buf_.size() == n * sizeof(double),
                  "return broadcast size mismatch");
    std::memcpy(returns_.data(), bcast_buf_.data(), bcast_buf_.size());
    calc_.push(returns_);
  }

  if (!calc_.ready()) return matrix_;

  // Compute my block of the tile-major pair order.
  {
    obs::ObsSpan span(nullptr, "corr.compute", h_compute_);
    const auto rank = static_cast<std::size_t>(comm_.rank());
    mine_.clear();
    for (std::size_t k = offsets_[rank]; k < offsets_[rank + 1]; ++k)
      mine_.push_back(calc_.pair(pairs_[k].i, pairs_[k].j));
  }

  // Ship shards to the root, which scatters them into its member matrix.
  {
    obs::ObsSpan span(nullptr, "corr.exchange", h_exchange_);
    if (comm_.rank() != 0) {
      pack_doubles(shard_buf_, mine_.data(), mine_.size());
      dup_.send(0, kShardTag, shard_buf_);
    } else {
      if (matrix_.size() != n) matrix_ = SymMatrix(n, 0.0);
      matrix_.fill_diagonal(1.0);
      for (std::size_t k = offsets_[0]; k < offsets_[1]; ++k)
        matrix_.set(pairs_[k].i, pairs_[k].j, mine_[k - offsets_[0]]);
      const auto world = static_cast<std::size_t>(comm_.size());
      for (std::size_t got = 1; got < world; ++got) {
        mpi::RecvStatus status;
        const auto payload = dup_.recv(mpi::any_source, kShardTag, &status);
        const auto owner = static_cast<std::size_t>(status.source);
        const std::size_t begin = offsets_[owner];
        const std::size_t count = offsets_[owner + 1] - begin;
        MM_ASSERT_MSG(payload.size() == count * sizeof(double),
                      "shard size mismatch");
        shard_vals_.resize(count);
        std::memcpy(shard_vals_.data(), payload.data(), payload.size());
        for (std::size_t k = 0; k < count; ++k)
          matrix_.set(pairs_[begin + k].i, pairs_[begin + k].j, shard_vals_[k]);
      }
    }
  }

  // Root repairs once (all ranks would compute the identical repair, so do
  // it before the broadcast) and ships the packed triangle; non-roots copy
  // it straight into their member matrix.
  {
    obs::ObsSpan span(nullptr, "corr.assemble", h_assemble_);
    if (comm_.rank() == 0) {
      if (calc_.config().repair_psd && !is_psd(matrix_))
        matrix_ = nearest_psd_correlation(matrix_);
      pack_doubles(mat_buf_, matrix_.packed().data(), matrix_.packed_size());
      dup_.bcast_bytes(mat_buf_, 0);
    } else {
      dup_.bcast_bytes(mat_buf_, 0);
      if (matrix_.size() != n) matrix_ = SymMatrix(n, 0.0);
      MM_ASSERT_MSG(mat_buf_.size() == matrix_.packed_size() * sizeof(double),
                    "matrix broadcast size mismatch");
      std::memcpy(matrix_.packed().data(), mat_buf_.data(), mat_buf_.size());
    }
  }
  return matrix_;
}

}  // namespace mm::stats
