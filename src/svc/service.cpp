#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "engine/pipeline.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/generator.hpp"
#include "obs/prometheus.hpp"
#include "wire/quote_source.hpp"

namespace mm::svc {

namespace {

// Per-rank event capacity of each job's trace rings (64 B/event): 256 KiB
// per rank.
constexpr std::size_t kJobTraceRingEvents = 1u << 12;

// Split a spec's paramsets into pipeline units: groups sharing (∆s, M), in
// first-appearance order, members in spec order. One unit = one run_pipeline
// call whose correlation stream is memoized per (day, universe, ∆s, M,
// estimator class).
std::vector<std::vector<std::size_t>> unit_groups(const JobSpec& spec) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::pair<std::int64_t, std::int64_t>> keys;
  for (std::size_t i = 0; i < spec.paramsets.size(); ++i) {
    const auto key = std::make_pair(spec.paramsets[i].delta_s,
                                    spec.paramsets[i].corr_window);
    std::size_t g = 0;
    for (; g < keys.size(); ++g)
      if (keys[g] == key) break;
    if (g == keys.size()) {
      keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }
  return groups;
}

std::string estimator_class(const JobSpec& spec,
                            const std::vector<std::size_t>& group) {
  for (const std::size_t i : group)
    if (spec.paramsets[i].ctype != stats::Ctype::pearson)
      return "pearson+maronna";
  return "pearson";
}

Status validate_spec(const JobSpec& spec) {
  if (spec.tenant.empty())
    return Error(Errc::invalid_argument, "job spec needs a non-empty tenant");
  if (spec.symbols < 2 || spec.symbols > 4096)
    return Error(Errc::invalid_argument, "symbols must be in [2, 4096]");
  if (spec.paramsets.empty() || spec.paramsets.size() > 256)
    return Error(Errc::invalid_argument, "paramsets must have 1..256 entries");
  const md::Session session;
  for (const auto& p : spec.paramsets) {
    if (auto valid = p.validate(); !valid.has_value()) return valid.error();
    // The M-return window fills at interval M, so the day needs M + 1
    // intervals of ∆s; with fewer no frame is ever valid (and with none the
    // strategies cannot even be built).
    const std::int64_t intervals = session.interval_count(p.delta_s);
    if (intervals < p.corr_window + 1)
      return Error(Errc::invalid_argument,
                   "corr_window " + std::to_string(p.corr_window) +
                       " needs corr_window + 1 intervals, but delta_s " +
                       std::to_string(p.delta_s) + " leaves " +
                       std::to_string(intervals) + " in the session");
  }
  return {};
}

obs::HttpResponse json_response(int status, const json::Value& body) {
  return {status, "application/json", body.dump()};
}

obs::HttpResponse error_response(int status, const std::string& message) {
  json::Value body = json::Value::object();
  body.set("error", message);
  return json_response(status, body);
}

// Trace "process" id for the service-plane worker rings — far above any
// pipeline rank pid so job/unit/day-cache spans get their own row group.
constexpr std::int32_t kServicePid = 1 << 20;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BacktestService::BacktestService(ServiceConfig config)
    : config_(config),
      day_cache_(
          [this](const std::string& key) -> Expected<std::vector<md::Quote>> {
            // Wire-fed mode: the feed server owns day generation; every
            // replica pointed at it caches the identical bytes.
            if (config_.feed_port != 0)
              return wire::fetch_day(config_.feed_host, config_.feed_port, key);
            // Key format is JobSpec::day_key(): synthetic/<n>/<seed>/<day>.
            std::size_t symbols = 0;
            unsigned long long seed = 0;
            int day = 0;
            if (std::sscanf(key.c_str(), "synthetic/%zu/%llu/%d", &symbols,
                            &seed, &day) != 3)
              return Error(Errc::invalid_argument, "bad day key: " + key);
            const auto universe = universe_for(symbols);
            md::GeneratorConfig generator;
            generator.seed = seed;
            if (config_.quote_rate > 0.0) generator.quote_rate = config_.quote_rate;
            const md::SyntheticDay synthetic(*universe, generator, day);
            return synthetic.quotes();
          },
          config.day_cache_bytes, &registry_),
      corr_store_(config.corr_store_bytes, &registry_),
      scheduler_(&queue_, [this](const std::shared_ptr<Job>& job) { run_job(job); },
                 config.workers) {
  wire_routes();
}

BacktestService::~BacktestService() { stop(); }

Status BacktestService::start() {
  MM_ASSERT_MSG(!started_, "service started twice");
  auto status = server_.start(config_.port);
  if (!status.has_value()) return status;
  scheduler_.start();
  started_ = true;
  return {};
}

void BacktestService::stop() {
  if (!started_) return;
  started_ = false;
  server_.stop();
  scheduler_.stop();
}

Expected<std::string> BacktestService::submit(JobSpec spec) {
  if (auto valid = validate_spec(spec); !valid.has_value())
    return valid.error();

  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->units_total = static_cast<int>(unit_groups(job->spec).size());
  job->submitted = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "job-%llu",
                  static_cast<unsigned long long>(++next_id_));
    job->id = buf;
    jobs_[job->id] = job;
  }
  if (config_.job_traces) {
    // One trace per job, allocated at POST: every span and envelope header
    // the job's units produce carries this id, and the sink is job-scoped so
    // GET /jobs/{id}/trace returns only this job's events.
    job->trace_id = obs::next_trace_id();
    job->trace = std::make_shared<obs::TraceSink>(kJobTraceRingEvents);
    job->trace->set_meta("job", job->id);
    job->trace->set_meta("tenant", job->spec.tenant);
    job->trace->set_meta("trace_id", std::to_string(job->trace_id));
  }
  registry_
      .counter(obs::labeled("svc.jobs_submitted", {{"tenant", job->spec.tenant}}))
      .add();
  if (auto admitted = queue_.try_push(job, config_.tenant_queue_limit);
      !admitted.has_value()) {
    job->state.store(JobState::cancelled, std::memory_order_release);
    if (admitted.error().code == Errc::capacity)
      registry_
          .counter(obs::labeled("svc.jobs_rejected",
                                {{"tenant", job->spec.tenant}}))
          .add();
    return admitted.error();
  }
  return job->id;
}

std::shared_ptr<Job> BacktestService::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second : nullptr;
}

bool BacktestService::wait(const std::string& id, std::int64_t timeout_ms) const {
  const auto job = find(id);
  if (job == nullptr) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const JobState state = job->state.load(std::memory_order_acquire);
    if (state == JobState::done || state == JobState::failed ||
        state == JobState::cancelled)
      return true;
    if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool BacktestService::cancel(const std::string& id) {
  const auto job = find(id);
  if (job == nullptr) return false;
  const JobState state = job->state.load(std::memory_order_acquire);
  if (state == JobState::done || state == JobState::failed ||
      state == JobState::cancelled)
    return false;
  if (queue_.remove(id)) {
    // Still queued: cancel immediately (it will never run).
    job->state.store(JobState::cancelled, std::memory_order_release);
  } else {
    // Running (or about to): the runner honors the bit at the next unit
    // boundary and sets the terminal state itself.
    job->cancel.store(true, std::memory_order_release);
  }
  registry_
      .counter(obs::labeled("svc.jobs_cancelled", {{"tenant", job->spec.tenant}}))
      .add();
  return true;
}

std::vector<std::shared_ptr<Job>> BacktestService::jobs() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  std::vector<std::shared_ptr<Job>> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    (void)id;
    out.push_back(job);
  }
  return out;
}

std::string BacktestService::render_metrics() const {
  return obs::prom_render(registry_.snapshot());
}

std::shared_ptr<const md::Universe> BacktestService::universe_for(
    std::size_t symbols) {
  std::lock_guard<std::mutex> lock(universes_mutex_);
  auto& slot = universes_[symbols];
  if (slot == nullptr)
    slot = std::make_shared<const md::Universe>(md::make_universe(symbols));
  return slot;
}

void BacktestService::run_job(const std::shared_ptr<Job>& job) {
  const std::string& tenant = job->spec.tenant;
  if (job->cancel.load(std::memory_order_acquire)) {
    job->state.store(JobState::cancelled, std::memory_order_release);
    return;
  }
  // Queue-wait attribution: submit instant -> this worker picking it up.
  const std::int64_t queue_wait_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job->submitted)
          .count();
  job->state.store(JobState::running, std::memory_order_release);
  registry_.gauge("svc.jobs_running").add(1);

  const auto stage_hist = [&](const char* stage) -> obs::Histogram& {
    return registry_.histogram(
        obs::labeled("svc.stage_ns", {{"stage", stage}, {"tenant", tenant}}));
  };
  stage_hist("queue").record(queue_wait_ns);

  // Service-plane tracing: this worker thread owns the job end to end, so it
  // gets its own ring in the job's sink (job/unit/day-cache spans) and runs
  // under the job's root context. Pipeline ranks write their own rings into
  // the same sink via PipelineConfig::trace.
  obs::TraceSink* sink = job->trace.get();
  obs::TraceRing* ring = nullptr;
  if (sink != nullptr) {
    ring = &sink->ring(kServicePid, "service");
    sink->set_thread_name(kServicePid, 0, "job-runner");
  }
  obs::TraceRingScope ring_scope(ring);
  obs::TraceContextScope context_scope(obs::make_trace_context(job->trace_id));
  obs::ObsSpan job_span(ring, "job");

  const auto fail = [&](const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->error = message;
    }
    job->state.store(JobState::failed, std::memory_order_release);
    registry_.counter(obs::labeled("svc.jobs_failed", {{"tenant", tenant}})).add();
    registry_.gauge("svc.jobs_running").add(-1);
  };

  const auto groups = unit_groups(job->spec);
  JobResult result;
  result.units = static_cast<int>(groups.size());
  std::vector<std::int64_t> cache_ns, compute_ns, exchange_ns;
  cache_ns.reserve(groups.size());
  compute_ns.reserve(groups.size());
  exchange_ns.reserve(groups.size());

  for (const auto& group : groups) {
    if (job->cancel.load(std::memory_order_acquire)) {
      job->state.store(JobState::cancelled, std::memory_order_release);
      registry_.gauge("svc.jobs_running").add(-1);
      return;
    }
    obs::ObsSpan unit_span(ring, "unit");

    const std::int64_t cache_t0 = steady_now_ns();
    Expected<md::DayCache::Day> day = [&] {
      obs::ObsSpan cache_span(ring, "day-cache");
      return day_cache_.get(job->spec.day_key());
    }();
    cache_ns.push_back(steady_now_ns() - cache_t0);
    stage_hist("cache").record(cache_ns.back());
    if (!day.has_value()) return fail("day load: " + day.error().message);
    const auto universe = universe_for(job->spec.symbols);

    engine::PipelineConfig config;
    config.symbols = job->spec.symbols;
    for (const std::size_t i : group)
      config.strategies.push_back(job->spec.paramsets[i]);
    // One correlation rank per unit, so `workers` bounds peak rank count.
    config.correlation_replicas = 1;
    config.day = day.value();
    config.corr_store = &corr_store_;
    config.corr_key.universe = job->spec.universe_key();
    config.corr_key.date = job->spec.day;
    config.corr_key.delta_s = job->spec.paramsets[group.front()].delta_s;
    config.corr_key.window = job->spec.paramsets[group.front()].corr_window;
    config.corr_key.estimator = estimator_class(job->spec, group);
    config.metrics = &registry_;
    config.trace = sink;
    config.trace_context = obs::make_trace_context(job->trace_id);

    const std::int64_t compute_t0 = steady_now_ns();
    const engine::PipelineResult run =
        engine::run_pipeline(config, *universe, {});
    if (run.replayed) ++result.units_from_cache;
    compute_ns.push_back(steady_now_ns() - compute_t0);
    stage_hist("compute").record(compute_ns.back());
    // Exchange = time the unit's dag nodes spent stalled on transport
    // credits (the per-run metrics delta sums dag.*.credit_stall_ns).
    exchange_ns.push_back(run.metrics.counter_suffix_total(".credit_stall_ns"));
    stage_hist("exchange").record(exchange_ns.back());
    if (run.degraded) {
      std::string nodes;
      for (const auto& status : run.faults) nodes += " " + status.name;
      return fail("pipeline degraded:" + nodes);
    }

    // Master sorts summaries by strategy_id == position within this unit's
    // strategy list, which is `group` order.
    MM_ASSERT(run.master.strategy_summaries.size() == group.size());
    for (std::size_t w = 0; w < group.size(); ++w) {
      const auto& summary = run.master.strategy_summaries[w];
      ParamOutcome outcome;
      outcome.index = group[static_cast<std::size_t>(summary.strategy_id)];
      outcome.trades = summary.trades;
      outcome.total_pnl = summary.total_pnl;
      outcome.trade_returns = summary.trade_returns;
      result.paramsets.push_back(std::move(outcome));
    }
    result.orders += run.master.orders;
    result.trades += run.master.trades;
    result.wall_seconds += run.wall_seconds;

    job->units_done.fetch_add(1, std::memory_order_relaxed);
    registry_.counter(obs::labeled("svc.units_done", {{"tenant", tenant}})).add();
    registry_.counter(obs::labeled("svc.trades", {{"tenant", tenant}}))
        .add(run.master.trades);
  }

  std::sort(result.paramsets.begin(), result.paramsets.end(),
            [](const ParamOutcome& a, const ParamOutcome& b) {
              return a.index < b.index;
            });
  result.latency.push_back(summarize_stage("queue", {queue_wait_ns}));
  result.latency.push_back(summarize_stage("cache", std::move(cache_ns)));
  result.latency.push_back(summarize_stage("compute", std::move(compute_ns)));
  result.latency.push_back(summarize_stage("exchange", std::move(exchange_ns)));
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->result = std::move(result);
  }
  job->state.store(JobState::done, std::memory_order_release);
  registry_.counter(obs::labeled("svc.jobs_done", {{"tenant", tenant}})).add();
  registry_.gauge("svc.jobs_running").add(-1);
}

void BacktestService::wire_routes() {
  server_.route("/healthz", []() { return obs::HttpResponse{200, "text/plain", "ok\n"}; });
  server_.route("/metrics", [this]() {
    return obs::HttpResponse{200, "text/plain; version=0.0.4", render_metrics()};
  });

  server_.route(
      "/jobs",
      [this](const obs::HttpRequest& req) -> obs::HttpResponse {
        if (req.method == "POST") {
          auto spec = parse_job_spec(req.body);
          if (!spec.has_value()) return error_response(400, spec.error().message);
          auto id = submit(std::move(spec.value()));
          if (!id.has_value()) {
            // A rejected spec is the client's to fix; admission pushback
            // the tenant's to handle (back off and retry); everything else
            // is the service going away.
            const Errc code = id.error().code;
            const int status = code == Errc::invalid_argument ? 400
                               : code == Errc::capacity       ? 429
                                                              : 503;
            return error_response(status, id.error().message);
          }
          json::Value body = json::Value::object();
          body.set("id", id.value());
          body.set("state", "queued");
          if (const auto job = find(id.value());
              job != nullptr && job->trace_id != 0)
            body.set("trace_id", static_cast<std::int64_t>(job->trace_id));
          return json_response(201, body);
        }
        // GET: list.
        json::Value list = json::Value::array();
        for (const auto& job : jobs()) {
          json::Value row = json::Value::object();
          row.set("id", job->id);
          row.set("tenant", job->spec.tenant);
          row.set("state", to_string(job->state.load(std::memory_order_acquire)));
          list.push(std::move(row));
        }
        json::Value body = json::Value::object();
        body.set("jobs", std::move(list));
        return json_response(200, body);
      },
      {"GET", "POST"});

  server_.route_prefix(
      "/jobs/",
      [this](const obs::HttpRequest& req) -> obs::HttpResponse {
        // /jobs/{id}, /jobs/{id}/result or /jobs/{id}/trace
        std::string rest = req.target.substr(std::string("/jobs/").size());
        bool want_result = false;
        bool want_trace = false;
        if (const auto slash = rest.find('/'); slash != std::string::npos) {
          if (rest.substr(slash) == "/result")
            want_result = true;
          else if (rest.substr(slash) == "/trace")
            want_trace = true;
          else
            return error_response(404, "no such route");
          rest.resize(slash);
        }
        const auto job = find(rest);
        if (job == nullptr) return error_response(404, "no such job: " + rest);

        if (req.method == "DELETE") {
          if (want_result || want_trace)
            return error_response(404, "no such route");
          if (!cancel(job->id))
            return error_response(409, "job already terminal");
          return json_response(202, job_status_json(*job));
        }
        if (want_result) {
          const JobState state = job->state.load(std::memory_order_acquire);
          if (state != JobState::done)
            return error_response(
                409, std::string("job is ") + to_string(state) + ", not done");
          return json_response(200, job_result_json(*job));
        }
        if (want_trace) {
          // Served only once terminal: the state acquire-load orders this
          // read after every ring write the job's threads made, so the
          // serialization never races a live pipeline.
          const JobState state = job->state.load(std::memory_order_acquire);
          if (state == JobState::queued || state == JobState::running)
            return error_response(
                409, std::string("job is ") + to_string(state) +
                         "; trace is served once the job is terminal");
          if (job->trace == nullptr)
            return error_response(404, "job tracing is disabled");
          return obs::HttpResponse{200, "application/json",
                                   job->trace->chrome_json()};
        }
        return json_response(200, job_status_json(*job));
      },
      {"GET", "DELETE"});
}

}  // namespace mm::svc
