// Backtest-as-a-service job model.
//
// A job is one tenant's request to sweep K parameter sets over one synthetic
// trading day. The service splits the sweep into UNITS — groups of paramsets
// sharing (∆s, M, estimator class) — because the Fig. 1 pipeline runs one
// correlation engine per (∆s, M): each unit becomes one run_pipeline call
// with K' strategy workers, and its correlation stream is memoized in the
// shared CorrStore under a key every tenant's identical unit hits.
//
// Specs and results travel as JSON (common/json.hpp). A spec names the
// tenant, the data (universe size, generator seed, day index) and the
// paramsets as overrides on ParamGrid::base() — unknown fields are rejected
// so a typo'd knob fails loudly instead of silently backtesting the default.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/params.hpp"
#include "obs/trace.hpp"

namespace mm::svc {

struct JobSpec {
  std::string tenant;
  std::size_t symbols = 10;        // universe size (make_universe prefix)
  std::uint64_t seed = 20080303;   // generator seed
  int day = 0;                     // synthetic day index
  std::vector<core::StrategyParams> paramsets;

  // Canonical fingerprint of the data this job reads; jobs with equal
  // universe keys share DayCache entries and CorrStore keys.
  std::string universe_key() const;
  // DayCache key for this spec's day.
  std::string day_key() const;
};

// Lower-case wire names for Ctype ("pearson" | "maronna" | "combined").
const char* ctype_wire_name(stats::Ctype c);
Expected<stats::Ctype> ctype_from_wire(const std::string& name);

// Parse a POST /jobs body. Validates every paramset (StrategyParams::
// validate) and rejects unknown paramset fields.
Expected<JobSpec> parse_job_spec(const std::string& body);

// Serialize a spec back to JSON (round-trips through parse_job_spec).
json::Value job_spec_json(const JobSpec& spec);

enum class JobState { queued, running, done, failed, cancelled };

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::failed: return "failed";
    case JobState::cancelled: return "cancelled";
  }
  return "?";
}

// Per-paramset outcome, in spec order.
struct ParamOutcome {
  std::size_t index = 0;  // position in JobSpec::paramsets
  std::uint64_t trades = 0;
  double total_pnl = 0.0;
  std::vector<double> trade_returns;
};

// Latency attribution for one stage of a job's life: exact quantiles over
// this job's own samples (queue has one sample; cache/compute/exchange have
// one per unit). Plain steady-clock timing, kept because perfbench reads it.
struct StageLatency {
  std::string stage;  // "queue" | "cache" | "compute" | "exchange"
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p95_ns = 0;
  std::int64_t p99_ns = 0;
};

// Nearest-rank quantile summary of `samples_ns` (consumed; empty -> zeros).
StageLatency summarize_stage(std::string stage, std::vector<std::int64_t> samples_ns);

struct JobResult {
  std::vector<ParamOutcome> paramsets;
  std::uint64_t orders = 0;  // across all units
  std::uint64_t trades = 0;
  double wall_seconds = 0.0;
  int units = 0;               // pipeline runs this job was split into
  int units_from_cache = 0;    // units whose correlation day was replayed
  // Where the job's wall time went: queue-wait, day-cache loads, pipeline
  // compute, transport exchange (credit stalls), in that order.
  std::vector<StageLatency> latency;
};

// One tracked job. State transitions: queued -> running -> done|failed, and
// queued|running -> cancelled (running jobs stop at the next unit boundary).
struct Job {
  std::string id;
  JobSpec spec;
  std::atomic<JobState> state{JobState::queued};
  std::atomic<bool> cancel{false};
  std::atomic<int> units_done{0};
  int units_total = 0;  // set before the job leaves `queued`

  // Causal tracing: the trace id every one of this job's spans and envelope
  // headers carries, the submission instant
  // (queue-wait attribution), and the job-scoped sink GET /jobs/{id}/trace
  // serves once the job is terminal. The sink is written only by the worker
  // running the job; state release/acquire orders it for readers.
  std::uint64_t trace_id = 0;
  std::chrono::steady_clock::time_point submitted{};
  std::shared_ptr<obs::TraceSink> trace;

  // Guards `result` and `error`; readable once state is terminal.
  mutable std::mutex mutex;
  JobResult result;
  std::string error;
};

// Status JSON for GET /jobs/{id}.
json::Value job_status_json(const Job& job);
// Result JSON for GET /jobs/{id}/result (call only when state == done).
json::Value job_result_json(const Job& job);

}  // namespace mm::svc
