// The integrated MarketMiner pair trading pipeline (the paper's Figure 1).
//
// Wires the component library into the published topology:
//
//   collector --> cleaner --> snapshot (OHLC bars + 1-interval returns)
//        --> correlation engine --> strategy worker x K --> master
//
// Each box runs on its own mpmini rank; edges are bounded dagflow channels.
// run_pipeline() streams one trading day through the graph and returns the
// master's report plus per-stage throughput.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dagflow/graph.hpp"
#include "engine/components.hpp"
#include "marketdata/generator.hpp"
#include "mpmini/fault.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mm::engine {

struct PipelineConfig {
  std::size_t symbols = 10;
  // Strategies to run in parallel (each gets its own worker rank). All must
  // share delta_s and corr_window — the single correlation engine of Fig. 1
  // serves one (∆s, M); see DESIGN.md.
  std::vector<core::StrategyParams> strategies;
  md::CleanerConfig cleaner{};
  stats::MaronnaConfig maronna{};
  std::size_t batch_size = 256;
  int channel_capacity = 64;
  RiskConfig risk{};
  // Ranks in the correlation engine's group node when a strategy needs
  // Maronna (1 = the leader alone): each member estimates one contiguous
  // block of the pairs. A Pearson-only day has nothing to shard and always
  // runs one correlation rank. 4 is the best point of a 1..5 sweep on a
  // 4-CPU host (CHANGES.md); frames are bit-identical at every size.
  int correlation_replicas = 4;
  // >0 adds the clustering branch ([12]): a snapshot of the market's
  // co-movement groups every `cluster_every` intervals.
  std::int64_t cluster_every = 0;
  int cluster_count = 4;
  // Optional tickdb source; when empty the in-memory quote vector is used.
  std::string tickdb_root;
  md::Date date{2008, 3, 3};
  // Optional shared day (takes precedence over both tickdb_root and the
  // quotes argument): N concurrent runs over one day replay one immutable
  // quote vector owned by the caller's DayCache instead of copying it.
  std::shared_ptr<const std::vector<md::Quote>> day;

  // --- correlation memoization --------------------------------------------
  // When set, the correlation stage memoizes whole days of packed CorrFrames
  // in `corr_store` under `corr_key`: the first run over a key computes and
  // publishes, every later run replays bit-identical frames without
  // re-estimating, at any correlation_replicas (frames are bit-identical
  // across replica counts). The caller owns the key's correctness — it must
  // uniquely identify (data, ∆s, M, estimator).
  stats::CorrStore* corr_store = nullptr;
  stats::CorrKey corr_key{};

  // --- fault tolerance -----------------------------------------------------
  // Injected faults (tests and chaos drills); default plan is inactive.
  mpi::FaultPlan fault{};
  // Bound on every transport wait inside a stage (0 = wait forever). With a
  // deadline, a stage whose upstream dies finishes its day degraded instead
  // of hanging, and run_pipeline() returns in bounded time under any
  // single-stage failure.
  std::chrono::milliseconds stage_deadline{0};
  // Deadline for one correlation replica's shard; a replica that misses it
  // is resharded onto the survivors (see make_correlation_stage).
  std::chrono::milliseconds replica_deadline{0};

  // --- telemetry -----------------------------------------------------------
  // Metrics registry shared by the transport, the dagflow runtime and the
  // stage components. Null = a private per-run registry whose aggregate is
  // returned in PipelineResult::metrics; pass your own to accumulate across
  // days (run_pipeline_session does not reset it between days).
  obs::Registry* metrics = nullptr;
  // Root causal context for the run: with a valid context (and a trace sink)
  // every frame the collector emits carries it, spans link across ranks via
  // flow events, and the whole day stitches into one Perfetto trace. The
  // service plane sets this to the job's trace id.
  obs::TraceContext trace_context{};
  // Optional trace sink: one ring per rank, one named row per node. Drain
  // with TraceSink::write_file after the run for chrome://tracing/Perfetto.
  obs::TraceSink* trace = nullptr;
  // Live monitoring plane (heartbeat liveness, periodic snapshots, /metrics
  // + /healthz HTTP exposition, crash flight recorder). Off by default; see
  // obs/live.hpp. The plane monitors THIS run only — one board per world.
  obs::LiveConfig live{};
  // > 0 paces the collector by quote timestamps at this multiple of real
  // time so the run lasts long enough to scrape mid-day (see components.hpp);
  // 0 streams at full speed.
  double replay_speedup = 0.0;

  // --- multi-process mode --------------------------------------------------
  // When set, this process runs ONLY rendezvous->rank of the pipeline graph
  // over the TCP socket transport; peer processes run the same config with
  // their own ranks (see dag::RunOptions::rendezvous). The PipelineResult
  // reflects local ranks only — run the master rank's process to get the
  // report. Must outlive the run.
  const mpi::Rendezvous* rendezvous = nullptr;
};

// One stage's traffic in this run, read from PipelineResult::metrics: records
// are dag.<name>.frames_in/out, items engine.<name>.items_in/out, faults
// engine.<name>.reshards. Runs that share a registry concurrently (the
// service's workers) see each other's traffic here, as in `metrics`.
struct StageReport {
  std::string name;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;
  std::uint64_t faults = 0;  // fault events the stage absorbed (resharding)
};

struct PipelineResult {
  MasterReport master;
  std::vector<StageReport> stages;
  // Cluster snapshots (empty unless cluster_every > 0).
  std::vector<ClusterSnapshot> clusters;
  double wall_seconds = 0.0;
  std::uint64_t quotes_in = 0;
  double quotes_per_second = 0.0;

  // Degradation section: true when any node failed, inherited a poisoned
  // stream, or hit a deadline; `faults` lists those nodes' statuses.
  bool degraded = false;
  std::vector<dag::NodeStatus> faults;

  // Structured telemetry for THIS run: mpmini transport counters, per-node
  // dagflow frame/stall/wall metrics, and engine stage counters and
  // histograms. When the caller shares one registry
  // across days this is still per-run — a delta against the registry's state
  // at run start — so back-to-back runs never bleed into each other.
  obs::Snapshot metrics;

  // Live-plane outcome: final per-rank liveness, merged crash entries and the
  // flight-recorder bundle path (default-empty when config.live is off).
  obs::LiveReport live;
};

// Stream `quotes` (one day, time-sorted) through the Fig. 1 graph.
PipelineResult run_pipeline(const PipelineConfig& config,
                            const md::Universe& universe,
                            std::vector<md::Quote> quotes);

// Multi-day session: generate and stream `day_count` consecutive synthetic
// trading days through fresh pipeline instances (state resets at the close,
// as the strategy's EOD-flatten mandates) and aggregate the master reports.
struct SessionResult {
  std::vector<PipelineResult> days;
  std::uint64_t total_trades = 0;
  std::uint64_t total_orders = 0;
  double total_pnl = 0.0;
  std::vector<double> daily_pnl;
  double wall_seconds = 0.0;
};

SessionResult run_pipeline_session(const PipelineConfig& config,
                                   const md::Universe& universe,
                                   const md::GeneratorConfig& generator,
                                   int day_count);

}  // namespace mm::engine
