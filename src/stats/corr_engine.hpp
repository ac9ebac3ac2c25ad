// Market-wide correlation engines: serial and parallel.
//
// This is the enabling component of the paper (§II): producing the full
// n × n correlation matrix over a sliding M-return window, every ∆s interval,
// in an online fashion. Pearson entries come from ReturnWindows' O(1)
// incremental sums (full matrices via the blocked pearson_matrix kernel);
// Maronna entries re-estimate each pair's 2×2 robust scatter over the window
// (the expensive part the paper parallelizes [14]). Cold starts seed from
// per-symbol medians/MADs computed once per step; with `warm_start` enabled
// each pair seeds from its previous step's converged estimate instead.
//
// ParallelCorrelationEngine shards the n(n-1)/2 pairs across the ranks of an
// mpmini communicator — the "Parallel Correlation Engine" box of Fig. 1.
#pragma once

#include <vector>

#include "mpmini/comm.hpp"
#include "obs/registry.hpp"
#include "stats/correlation.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"

namespace mm::stats {

struct CorrEngineConfig {
  Ctype type = Ctype::pearson;
  std::size_t window = 100;  // the paper's M
  MaronnaConfig maronna{};
  // Repair the assembled matrix to PSD (meaningful for Maronna/Combined;
  // costs an O(n³) eigendecomposition per step).
  bool repair_psd = false;
  // Warm-start Maronna from the previous step's converged estimate (see
  // WarmMaronna). Results agree with the batch estimator to within the
  // convergence tolerance instead of bit-for-bit, so this is opt-in.
  bool warm_start = false;
  // Cold-restart cadence for the warm-started path.
  int warm_restart_interval = kWarmRestartInterval;
  // Pair-iteration tile edge (symbols per block) for the O(n²) pair space:
  // pairs are walked in tile-major order (see tiled_pairs), so a contiguous
  // span of work touches at most ~2·tile distinct window rows and a rank's
  // shard stays cache-resident at thousands of symbols. 0 degrades to the
  // row-major canonical order.
  std::size_t pair_tile = 64;
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
  // Maronna over the unwrapped windows, cold or warm-started per the
  // config (Maronna and Combined calculators). A cold robust() starts from
  // the two symbols' step-scoped robust scales and equals the pairwise
  // maronna_estimate bit for bit. Every per-pair estimate in the pipeline
  // and the Approach-3 series goes through these.
  double pearson(std::size_t i, std::size_t j) const { return windows_.pearson(i, j); }
  double robust(std::size_t i, std::size_t j) const;

  // Full matrix at the current step, unit diagonal. matrix_into reuses the
  // caller's storage (resizing only when the symbol count changed), so a
  // steady-state loop is allocation-free; matrix() is the allocating
  // convenience form.
  void matrix_into(SymMatrix& out) const;
  SymMatrix matrix() const;

 private:
  // Unwrap every symbol's ring buffer into the contiguous arena, once per
  // step, shared by all pair estimates of the step; also refreshes the
  // per-symbol robust scales (cold) or MAD-degeneracy flags (warm).
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
  mutable std::vector<unsigned char> mad_zero_;  // per-symbol, warm path only
  mutable std::vector<RobustScale> scale_;  // per-symbol, cold robust path only
  mutable WarmMaronna warm_;
  mutable MaronnaScratch maronna_scratch_;  // robust_scale's selection buffers
};

// Pair-sharded parallel engine. All ranks of `comm` construct it with the
// same arguments, then call step() collectively once per interval; rank 0
// passes the market-wide return vector (other ranks' argument is ignored)
// and every rank receives the assembled matrix (empty until windows fill).
//
// Shards are static, contiguous blocks of the tile-major pair order (see
// tiled_pairs / CorrEngineConfig::pair_tile), balanced to within one pair:
// rank r owns pairs [offsets[r], offsets[r+1]). Block sharding over the
// tiled order keeps each rank's warm-start state and window rows
// cache-resident at thousands of symbols and makes shard assembly a linear
// copy instead of a round-robin scatter.
//
// The step is built around persistent buffers: the assembled matrix, the
// mirrored return vector and every transport staging buffer are members
// reused across steps, and step() returns a reference to the member matrix.
// A single-rank engine touches no transport at all and is allocation-free in
// steady state (asserted by tests/test_corr_alloc.cpp); multi-rank steps
// allocate only the transport's bounded per-message envelopes. Exchange runs
// over a private duplicate of `comm`: non-roots send their shard to rank 0,
// which assembles (and PSD-repairs, if configured) once and broadcasts the
// packed triangle.
//
// Per-step kernel timings land in mm::obs nanosecond histograms on the given
// registry (corr.step.broadcast_ns / compute_ns / exchange_ns / assemble_ns),
// one sample per rank per step — read them with Registry::snapshot(). With a
// null registry the process-wide obs::Registry::global() is used. The serial
// fast path records compute_ns only.
class ParallelCorrelationEngine {
 public:
  ParallelCorrelationEngine(mpi::Comm& comm, const CorrEngineConfig& config,
                            std::size_t symbols, obs::Registry* registry = nullptr);

  // Collective. Returns the matrix once windows are full, else an empty one.
  // The reference stays valid until the next step() on this engine.
  const SymMatrix& step(const std::vector<double>& returns);

  bool ready() const { return calc_.ready(); }
  std::size_t local_pair_count() const {
    const auto r = static_cast<std::size_t>(comm_.rank());
    return offsets_[r + 1] - offsets_[r];
  }

 private:
  mpi::Comm& comm_;
  mpi::Comm dup_;  // private channel namespace for the shard exchange
  CorrelationCalculator calc_;
  std::vector<PairIndex> pairs_;      // tile-major order, built once
  std::vector<std::size_t> offsets_;  // size() + 1 block boundaries
  std::vector<double> mine_;          // this rank's shard values, reused
  SymMatrix matrix_;                  // assembled result, reused across steps
  std::vector<double> returns_;              // mirrored market returns
  std::vector<std::uint8_t> bcast_buf_;      // return-vector broadcast staging
  std::vector<std::uint8_t> shard_buf_;      // my shard, packed for the root
  std::vector<std::uint8_t> mat_buf_;        // packed-matrix broadcast staging
  std::vector<double> shard_vals_;           // root-side shard decode scratch
  // Step-phase histograms (see class comment); handles resolved once.
  obs::Histogram* h_broadcast_;
  obs::Histogram* h_compute_;
  obs::Histogram* h_exchange_;
  obs::Histogram* h_assemble_;
};

}  // namespace mm::stats
