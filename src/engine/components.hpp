// Fig. 1 pipeline components as dagflow node factories.
//
// Each factory returns a NodeFn that runs on its own rank. The wiring (who
// feeds whom) lives in pipeline.hpp; this header is the component library:
//
//   collector   — streams one day of quotes as QuoteBatch records (the
//                 pipeline resolves the day from memory, a shared DayCache
//                 entry or a tickdb before wiring);
//   cleaner     — structural checks + the TCP-like band filter;
//   snapshot    — OHLC-bar / technical-analysis stage: turns the quote stream
//                 into one end-of-interval Snapshot (BAM prices + log
//                 returns) per ∆s;
//   correlation — the correlation engine as a group node of one or more
//                 ranks: every pair estimated by stats::CorrelationCalculator
//                 (incremental Pearson plus optional cold Maronna over the
//                 sliding M-window), fanned out to every strategy node;
//   strategy    — one parameter set across a set of pairs, emitting Order
//                 records and an end-of-day StrategySummary;
//   master      — order aggregation (netting into baskets), risk accounting,
//                 and the run report.
//
// Stage traffic lives in the run's obs registry: dagflow counts every
// node's records (dag.<node>.frames_in/out) and each component adds its
// items per batch to engine.<node>.items_in/out (quotes, snapshots, frames,
// orders). The pipeline's StageReport reads both back from the run's metrics
// delta. A run without a registry counts nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dagflow/graph.hpp"
#include "engine/messages.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"
#include "stats/corr_store.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::engine {

// Risk limits enforced (observationally) by the master: Fig. 1's master
// performs "additional tasks such as risk management and liquidity
// provisioning". Limits of 0 disable the corresponding check.
struct RiskConfig {
  // Maximum absolute net shares held per symbol across all strategies.
  double max_symbol_shares = 0.0;
  // Maximum gross notional (sum over symbols of |position| x last price).
  double max_gross_notional = 0.0;
};

// End-of-run report assembled by the master node.
struct MasterReport {
  std::uint64_t orders = 0;
  std::uint64_t entries = 0;
  std::uint64_t exits = 0;
  std::uint64_t trades = 0;
  double total_pnl = 0.0;
  std::vector<double> trade_returns;
  // Net signed shares per symbol after all orders (≈0 everywhere if every
  // position was flattened by end of day).
  std::map<std::uint32_t, double> net_shares;
  // Baskets: number of distinct intervals in which orders were aggregated.
  std::uint64_t basket_count = 0;

  // Risk accounting.
  std::uint64_t symbol_limit_breaches = 0;  // orders that pushed a symbol past
                                            // its per-symbol share limit
  std::uint64_t gross_limit_breaches = 0;
  double peak_gross_notional = 0.0;

  // Every order, in arrival order (feeds the execution simulator).
  std::vector<Order> order_log;

  // Basket netting: total |shares| across raw orders vs after netting
  // opposite-side orders within each (interval, symbol) basket — the saving a
  // list-based execution algorithm would capture.
  double raw_order_shares = 0.0;
  double netted_order_shares = 0.0;
  double netting_savings_fraction() const {
    return raw_order_shares > 0.0
               ? 1.0 - netted_order_shares / raw_order_shares
               : 0.0;
  }

  // Degradation section: true when at least one of the master's input
  // streams closed with a failure marker (or went silent past the deadline)
  // instead of a clean end-of-day. The report then covers only the healthy
  // strategies.
  bool degraded = false;
  // Master input ports (== strategy worker indices) whose stream failed.
  std::vector<int> failed_strategies;

  // Per-strategy end-of-day summaries, sorted by strategy_id — the grouped
  // runs the backtest service fires (K paramsets through one pipeline) need
  // per-paramset attribution, not just the aggregate above.
  std::vector<StrategySummary> strategy_summaries;
};

// --- collector ---------------------------------------------------------
// Streams a day owned elsewhere (an in-memory day, the service's DayCache,
// or a tickdb day read by the caller) without copying it per run — N
// concurrent backtests of one day share one quote vector.
//
// replay_speedup > 0 paces emission by quote timestamps: the day is replayed
// at `replay_speedup` x real time (e.g. 600 compresses 10 market minutes into
// one wall second), so the pipeline runs long enough to be watched live on
// /metrics. Pacing sleeps are chunked to the heartbeat interval with a beat
// between chunks — a pacing collector is idle-but-alive, never suspect.
// 0 (the default) emits as fast as downstream credits allow.
dag::NodeFn make_collector(std::shared_ptr<const std::vector<md::Quote>> day,
                           std::size_t batch_size, double replay_speedup = 0.0);

// --- cleaning ------------------------------------------------------------
dag::NodeFn make_cleaner(std::size_t symbols, md::CleanerConfig config);

// --- bars / technical analysis -------------------------------------------
// `seed_prices` provides a pre-open price per symbol so early intervals have
// a defined BAM before a symbol's first quote.
dag::NodeFn make_snapshot_stage(std::size_t symbols, md::Session session,
                                std::int64_t delta_s, std::vector<double> seed_prices);

// --- correlation engine ----------------------------------------------------
// Fig. 1's "Parallel Correlation Engine" as a dagflow group node of any
// size (one rank included). Emits one CorrFrame per Snapshot on every
// output port [0, fan_out). Every member owns a stats::CorrelationCalculator
// (Combined when `need_maronna`, else Pearson; cold Maronna) mirroring the
// sliding windows. Per snapshot the leader sends the return vector to every
// live replica, then computes its own share before it gathers: Pearson for
// every pair (O(1) each) plus Maronna block 0. The member at position b of
// the round's live list owns block b — a contiguous, balanced slice of the
// canonical pair order (stats::block_begin) — and ships back only its
// Maronna values, which the leader copies into the frame linearly. A
// one-rank group touches no group transport at all.
//
// With replica_deadline > 0 the gather is bounded: a replica that misses the
// deadline is dropped from the live list (from the next round on the pairs
// are re-split into blocks over the survivors) and its block for the current
// round is computed by the leader, which mirrors every window — so the
// emitted frames stay bit-identical to the healthy run. Each resharding
// event bumps engine.<node>.reshards. With replica_deadline == 0 every wait
// blocks forever.
//
// With a CorrStore attached the leader memoizes whole days of packed frames
// under `store_key`: a hit releases the replicas and replays the stored
// buffers verbatim (bit-identical output, no estimation work); a miss
// computes normally while recording, and publishes only a COMPLETE day
// (`expected_frames` received) so a fault-aborted run never poisons the
// cache. Frames are bit-identical at every replica count, so a day computed
// by one group size replays correctly under any other.
dag::GroupNodeFn make_correlation_stage(
    std::size_t symbols, std::int64_t corr_window, bool need_maronna,
    stats::MaronnaConfig maronna_config, int fan_out,
    std::chrono::milliseconds replica_deadline = std::chrono::milliseconds{0},
    stats::CorrStore* store = nullptr, stats::CorrKey store_key = {},
    std::int64_t expected_frames = 0);

// --- clustering --------------------------------------------------------------
// The [12] companion workload: consume CorrFrames and, every
// `cadence` intervals, emit a ClusterSnapshot of the market's co-movement
// groups (single-linkage to `target_clusters`). Plugs in as an extra consumer
// of the correlation engine's fan-out.
dag::NodeFn make_cluster_stage(std::size_t symbols, int target_clusters,
                               std::int64_t cadence);
dag::NodeFn make_strategy_stage(core::StrategyParams params,
                                std::vector<stats::PairIndex> pairs,
                                std::int32_t strategy_id, std::int64_t smax);

// --- master ------------------------------------------------------------------
dag::NodeFn make_master(MasterReport* report, RiskConfig risk = {});

}  // namespace mm::engine
