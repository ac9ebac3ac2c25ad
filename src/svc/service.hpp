// Backtest-as-a-service: the multi-tenant sweep front end.
//
// One BacktestService owns the shared planes every tenant's jobs ride on:
//
//   DayCache    — each (universe, seed, day) quote vector loaded once,
//                 replayed in place by every pipeline (PipelineConfig::day);
//   CorrStore   — each (day, universe, ∆s, M, estimator) correlation stream
//                 computed once, replayed bit-identically by later units;
//   JobQueue +  — per-tenant fair-share admission onto a bounded worker
//   Scheduler     pool; each worker streams one unit (= one run_pipeline
//                 with a one-rank correlation group) at a time, so
//                 `workers` bounds peak rank count;
//   Registry +  — per-tenant labeled service counters next to the engine's
//   MetricsServer own metrics, scraped from GET /metrics.
//
// REST surface (loopback only, see obs/http.hpp):
//   POST   /jobs              submit a JobSpec, 201 -> {"id": ...}
//   GET    /jobs              list job ids and states
//   GET    /jobs/{id}         status (state, units done/total)
//   GET    /jobs/{id}/result  result JSON (409 until the job is done)
//   DELETE /jobs/{id}         cancel (queued: immediate; running: at the
//                             next unit boundary)
//   GET    /metrics           Prometheus text (svc.*, corr_store.*,
//                             day_cache.* and engine families)
//   GET    /healthz           "ok"
//
// Determinism: a job's result depends only on its spec — never on cache
// state or tenant interleaving — because cache hits replay the exact bytes
// a cold run would compute (see stats/corr_store.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "marketdata/day_cache.hpp"
#include "marketdata/symbols.hpp"
#include "obs/http.hpp"
#include "obs/registry.hpp"
#include "stats/corr_store.hpp"
#include "svc/job.hpp"
#include "svc/queue.hpp"
#include "svc/scheduler.hpp"

namespace mm::svc {

struct ServiceConfig {
  // Worker pool size: jobs running concurrently (each runs one pipeline at
  // a time).
  int workers = 2;
  // HTTP port (0 = ephemeral; BacktestService::port() after start()).
  std::uint16_t port = 0;
  // Byte budgets for the shared caches (0 = unbounded).
  std::size_t day_cache_bytes = 0;
  std::size_t corr_store_bytes = 0;
  // Pipeline channel capacity and collector batch size (test knobs).
  int channel_capacity = 64;
  std::size_t batch_size = 256;
  // Synthetic generator quote rate override (0 = GeneratorConfig default).
  // Service-global, so it never splits cache keys.
  double quote_rate = 0.0;
  // Job-scoped causal traces: every job gets a trace_id at submit and its own
  // TraceSink; units run with the job's context so cross-rank flow events
  // stitch the whole job, served from GET /jobs/{id}/trace once terminal.
  bool job_traces = true;
  // Per-rank event capacity of each job's trace rings (64 B/event). The
  // default bounds a job's trace at 256 KiB per rank; deep sweeps drop the
  // newest events past that (TraceSink::total_dropped says how many).
  std::size_t trace_ring_events = 1u << 12;
  // Per-tenant queue-depth bound (0 = unbounded): a POST /jobs that would
  // put a tenant past this many QUEUED jobs is rejected with 429 and counted
  // in svc.jobs_rejected{tenant}. Running jobs don't count — the worker pool
  // already bounds concurrency; this bounds how far one tenant can backlog
  // the shared queue.
  std::size_t tenant_queue_limit = 0;
  // Day source over the wire: when feed_port != 0 the DayCache loads days
  // from a wire::TcpFeedServer at feed_host:feed_port (the day key is the
  // subscription key) instead of generating them in-process. Lets one feed
  // process serve many service replicas the identical bytes.
  std::string feed_host = "127.0.0.1";
  std::uint16_t feed_port = 0;
};

class BacktestService {
 public:
  explicit BacktestService(ServiceConfig config = {});
  ~BacktestService();

  // Bind the HTTP listener and start the worker pool.
  Status start();
  // Deterministic shutdown: stops the listener, cancels queued + in-flight
  // jobs at unit boundaries, joins every worker (see Scheduler::stop()).
  void stop();

  std::uint16_t port() const { return server_.port(); }

  // --- programmatic surface (what the HTTP handlers call) -----------------
  // Validate + enqueue; returns the job id.
  Expected<std::string> submit(JobSpec spec);
  std::shared_ptr<Job> find(const std::string& id) const;
  // Block until the job reaches a terminal state (done/failed/cancelled).
  // False on timeout (0 = wait forever).
  bool wait(const std::string& id, std::int64_t timeout_ms = 0) const;
  // Cancel queued or running; false when unknown or already terminal.
  bool cancel(const std::string& id);
  std::vector<std::shared_ptr<Job>> jobs() const;

  // Shared-plane introspection for tests and benchmarks.
  obs::Registry& registry() { return registry_; }
  stats::CorrStore& corr_store() { return corr_store_; }
  md::DayCache& day_cache() { return day_cache_; }
  std::string render_metrics() const;

  BacktestService(const BacktestService&) = delete;
  BacktestService& operator=(const BacktestService&) = delete;

 private:
  void run_job(const std::shared_ptr<Job>& job);
  std::shared_ptr<const md::Universe> universe_for(std::size_t symbols);
  void wire_routes();

  const ServiceConfig config_;
  obs::Registry registry_;
  md::DayCache day_cache_;
  stats::CorrStore corr_store_;
  JobQueue queue_;
  Scheduler scheduler_;
  obs::MetricsServer server_;

  mutable std::mutex jobs_mutex_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 0;

  std::mutex universes_mutex_;
  std::map<std::size_t, std::shared_ptr<const md::Universe>> universes_;

  bool started_ = false;
};

}  // namespace mm::svc
