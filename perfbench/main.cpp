// Repository benchmark program (see perfbench/README.md).
//
// Runs one workload through the public API in this process:
//
//   day_pearson  paper-scale Fig. 1 days, K=2 Pearson strategies
//   day_maronna  the same days, K=2 Maronna + Combined strategies
//   svc_mix      BacktestService with 3 closed-loop tenants: two readers
//                replaying popular days, one writer computing new days
//
// checks every result against a reference computed outside the timed
// intervals, and prints the metrics: one human-readable line each, a host
// context line, and as the last line the JSON result object.
//
//   mm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--tiny] [--trace-out <file>]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/backtester.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/day_cache.hpp"
#include "marketdata/generator.hpp"
#include "mpmini/wait.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "stats/corr_store.hpp"
#include "stats/simd.hpp"
#include "svc/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear interpolation between order statistics (Python's
// statistics.quantiles "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Output: every metric as "name = value unit  (note)", then the JSON line.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void print_lines() const {
    for (const auto& m : metrics_)
      std::printf("  %-34s = %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : "  ", m.note.c_str());
  }
  mm::json::Value json() const {
    auto out = mm::json::Value::object();
    for (const auto& m : metrics_) {
      auto entry = mm::json::Value::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      out.set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// Outcome accounting shared by every workload: one operation is one
// streamed day or one service job.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Per-layer ledger: dagflow / engine / mpmini series summed over a sample.

constexpr const char* kStages[] = {"collector", "cleaner", "snapshot", "correlation",
                                   "strategy", "master"};

double hist_sum_s(const mm::obs::Snapshot& s, const std::string& name) {
  const auto* m = s.find(name);
  return m != nullptr ? static_cast<double>(m->sum) * 1e-9 : 0.0;
}

double counter_value(const mm::obs::Snapshot& s, const std::string& name) {
  const auto* m = s.find(name);
  return m != nullptr ? static_cast<double>(m->value) : 0.0;
}

struct Ledger {
  std::map<std::string, double> wall_s, stall_s;
  double correlation_busy_s = 0.0;
  double strategy_busy_s = 0.0;
  double master_orders = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double quotes = 0.0;
  double ring_depth_peak = 0.0;

  // `metrics` is one run's (or one sweep's) delta; strategy wall and stall
  // take the maximum over the `workers` strategy nodes.
  void add(const mm::obs::Snapshot& metrics, int workers, double orders,
           double streamed_quotes) {
    for (const char* stage : kStages) {
      const std::string name = stage;
      if (name == "strategy") continue;
      wall_s[name] += hist_sum_s(metrics, "dag." + name + ".wall_ns");
      stall_s[name] += counter_value(metrics, "dag." + name + ".credit_stall_ns") * 1e-9;
    }
    double wall = 0.0, stall = 0.0;
    for (int w = 0; w < workers; ++w) {
      const std::string node = "dag.strategy-" + std::to_string(w);
      wall = std::max(wall, hist_sum_s(metrics, node + ".wall_ns"));
      stall = std::max(stall, counter_value(metrics, node + ".credit_stall_ns") * 1e-9);
    }
    wall_s["strategy"] += wall;
    stall_s["strategy"] += stall;
    correlation_busy_s += hist_sum_s(metrics, "engine.correlation.step_ns");
    strategy_busy_s += hist_sum_s(metrics, "engine.strategy.step_ns");
    master_orders += orders;
    messages += counter_value(metrics, "mpmini.send.messages");
    bytes += counter_value(metrics, "mpmini.send.bytes");
    quotes += streamed_quotes;
    ring_depth_peak = std::max(ring_depth_peak, counter_value(metrics, "mpmini.ring.depth_peak"));
  }

  void report(Report& out) const {
    for (const char* stage : kStages) {
      const std::string name = stage;
      out.add("engine." + name + ".wall_s", wall_s.at(name), "s");
      // The master has no downstream edge, so it never waits for credits.
      if (name != "master") out.add("engine." + name + ".stall_s", stall_s.at(name), "s");
    }
    out.add("engine.correlation.busy_s", correlation_busy_s, "s");
    out.add("engine.strategy.busy_s", strategy_busy_s, "s", "summed over workers");
    out.add("engine.master.orders", master_orders, "count");
    out.add("mpmini.msgs_per_quote", quotes > 0 ? messages / quotes : 0.0, "1/quote");
    out.add("mpmini.bytes_per_quote", quotes > 0 ? bytes / quotes : 0.0, "B/quote");
    out.add("mpmini.ring_depth_peak", ring_depth_peak, "count");
  }

  // The stage whose rank was busiest: correlation's step time against one
  // strategy worker's (the mean over workers).
  std::string busiest(int workers) const {
    return correlation_busy_s >= strategy_busy_s / workers ? "correlation" : "strategy";
  }
};

// Standalone timings of the direct Approach-3 path on one day.
struct LayerTimes {
  double clean_s = 0.0;
  double bam_s = 0.0;
  double corr_series_s = 0.0;
  double pair_days_s = 0.0;
};

// ---------------------------------------------------------------------------
// Reference: the direct (non-streaming) Approach-3 backtest the pipeline
// must reproduce — the path tests/test_engine.cpp's
// Pipeline.MatchesDirectBacktestExactly checks.

struct Reference {
  std::vector<std::uint64_t> trades;  // per strategy
  std::vector<double> pnl;            // per strategy
};

Reference reference_day(const mm::md::Universe& universe,
                        const std::vector<mm::md::Quote>& quotes,
                        const mm::engine::PipelineConfig& config, int threads,
                        LayerTimes* times) {
  namespace md = mm::md;
  const std::size_t n = config.symbols;
  const auto& base = config.strategies.front();
  bool need_maronna = false;
  for (const auto& p : config.strategies)
    need_maronna = need_maronna || p.ctype != mm::stats::Ctype::pearson;

  auto t0 = Clock::now();
  md::QuoteCleaner cleaner(n, config.cleaner);
  const auto cleaned = cleaner.clean(quotes);
  const double clean_s = seconds_since(t0);

  t0 = Clock::now();
  const md::Session session;
  auto bam = md::sample_bam_series(cleaned, n, session, base.delta_s);
  // The snapshot stage seeds a symbol's price from base_price until its
  // first quote; sample_bam_series backfills instead. Match the pipeline.
  {
    std::vector<bool> seen(n, false);
    std::size_t qi = 0;
    const auto smax = static_cast<std::size_t>(session.interval_count(base.delta_s));
    for (std::size_t s = 0; s < smax; ++s) {
      const auto end = session.interval_end(static_cast<std::int64_t>(s), base.delta_s);
      for (; qi < cleaned.size() && cleaned[qi].ts_ms < end; ++qi)
        seen[cleaned[qi].symbol] = true;
      for (std::size_t i = 0; i < n; ++i)
        if (!seen[i]) bam[i][s] = universe.base_price[i];
    }
  }
  const double bam_s = seconds_since(t0);

  // Pair shards: each thread computes its pairs' correlation series and
  // runs every strategy over them. Cold Maronna is per pair, so a shard's
  // series equal the full computation's.
  const auto pairs = mm::stats::all_pairs(n);
  const std::size_t k_count = config.strategies.size();
  // pnl[w][pair] = that pair's trade pnls in order.
  std::vector<std::vector<std::vector<double>>> pnl(
      k_count, std::vector<std::vector<double>>(pairs.size()));
  std::vector<double> corr_s(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> pair_s(static_cast<std::size_t>(threads), 0.0);
  const auto shard = [&](int t) {
    const std::size_t lo = pairs.size() * static_cast<std::size_t>(t) / threads;
    const std::size_t hi = pairs.size() * static_cast<std::size_t>(t + 1) / threads;
    const std::vector<mm::stats::PairIndex> mine(pairs.begin() + lo, pairs.begin() + hi);
    auto c0 = Clock::now();
    const auto market = mm::core::compute_market_corr_series(
        bam, base.corr_window, need_maronna, config.maronna, mine);
    corr_s[t] = seconds_since(c0);
    c0 = Clock::now();
    for (std::size_t w = 0; w < k_count; ++w)
      for (std::size_t k = 0; k < mine.size(); ++k) {
        const auto trades = mm::core::run_pair_day(config.strategies[w], bam[mine[k].i],
                                                   bam[mine[k].j], market, k);
        for (const auto& trade : trades) pnl[w][lo + k].push_back(trade.pnl);
      }
    pair_s[t] = seconds_since(c0);
  };
  if (threads == 1) {
    shard(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(shard, t);
    for (auto& th : pool) th.join();
  }

  // Sum in the strategy stage's order: pair by pair, trade by trade.
  Reference ref;
  for (std::size_t w = 0; w < k_count; ++w) {
    std::uint64_t trades = 0;
    double total = 0.0;
    for (const auto& per_pair : pnl[w])
      for (const double x : per_pair) {
        ++trades;
        total += x;
      }
    ref.trades.push_back(trades);
    ref.pnl.push_back(total);
  }
  if (times != nullptr) *times = {clean_s, bam_s, sum(corr_s), sum(pair_s)};
  return ref;
}

bool matches_reference(const mm::engine::MasterReport& master, const Reference& ref) {
  if (master.strategy_summaries.size() != ref.trades.size()) return false;
  for (std::size_t w = 0; w < ref.trades.size(); ++w) {
    const auto& s = master.strategy_summaries[w];
    if (s.trades != ref.trades[w] || std::fabs(s.total_pnl - ref.pnl[w]) > 1e-9)
      return false;
  }
  return true;
}

// Replays must reproduce the computed run bit for bit.
bool same_summaries(const mm::engine::MasterReport& a, const mm::engine::MasterReport& b) {
  if (a.strategy_summaries.size() != b.strategy_summaries.size()) return false;
  for (std::size_t w = 0; w < a.strategy_summaries.size(); ++w) {
    const auto& x = a.strategy_summaries[w];
    const auto& y = b.strategy_summaries[w];
    if (x.strategy_id != y.strategy_id || x.trades != y.trades ||
        x.total_pnl != y.total_pnl || x.trade_returns != y.trade_returns)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

constexpr std::uint64_t kDefaultGeneratorSeed = 20080303;

mm::core::StrategyParams strategy(mm::stats::Ctype ctype, std::int64_t window,
                                  double divergence) {
  auto p = mm::core::ParamGrid::base();
  p.ctype = ctype;
  p.corr_window = window;
  p.divergence = divergence;
  return p;
}

struct Outcome {
  Report metrics;  // end-to-end (trace 0) or per-layer (trace 1)
  std::vector<std::string> notes;
  Tally tally;
  // Traced full-size day workloads: the busiest stage found in the ledger
  // and the one the workload is designed to be bound by. run.py --all
  // fails when they differ.
  std::string busiest_stage, designed_stage;
};

// "p90 of n=26 replays": every aggregate states its sample count.
std::string n_note(const char* what, std::size_t n, const std::string& samples) {
  return std::string(what) + " of n=" + std::to_string(n) + " " + samples;
}

// --- day_pearson / day_maronna ---------------------------------------------

struct DayWorkload {
  std::vector<mm::core::StrategyParams> strategies;
  const char* estimator;
  // Rough wall seconds one day costs on a 4-core host (set-up, cold stream,
  // replays, reference): sizes the sample from --seconds.
  double nominal_day_s;
  int replays_per_day;
  // The stage the workload is designed to be bound by (checked when traced).
  const char* bottleneck;
};

Outcome run_days(const Options& opt, const DayWorkload& spec) {
  namespace md = mm::md;
  namespace engine = mm::engine;
  Outcome out;
  const std::size_t symbols = opt.tiny ? 8 : 61;
  // A full-size run streams at least four days, so its median day is a median.
  const int days = opt.tiny ? 2
                            : std::max(4, static_cast<int>(std::lround(
                                              opt.seconds / spec.nominal_day_s)));
  const int workers = static_cast<int>(spec.strategies.size());
  const int ref_threads =
      std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));

  md::GeneratorConfig generator;
  generator.seed = kDefaultGeneratorSeed + opt.seed;
  // Days load through a DayCache, as in the service. A one-byte budget keeps
  // only the newest day resident: each day is released when the next loads.
  std::vector<double> generate_s;
  const md::Universe* day_universe = nullptr;
  md::DayCache day_cache(
      [&](const std::string& key) -> mm::Expected<std::vector<md::Quote>> {
        const auto t_gen = Clock::now();
        const md::SyntheticDay synthetic(*day_universe, generator, std::stoi(key));
        generate_s.push_back(seconds_since(t_gen));
        return synthetic.quotes();
      },
      1);

  std::vector<double> setup_s, cold_s, cold_qps, memo_s, traced_qps, untraced_qps;
  double all_stream_s = 0.0;
  std::uint64_t streams = 0;
  mm::stats::CorrStore::Stats store_totals;
  Ledger ledger;
  LayerTimes layers;

  for (int d = 0; d < days; ++d) {
    // Set-up: the universe and the day's quotes, generated just before the
    // day is streamed.
    const auto t_setup = Clock::now();
    const md::Universe universe = md::make_universe(symbols);
    day_universe = &universe;
    auto loaded = day_cache.get(std::to_string(d));
    setup_s.push_back(seconds_since(t_setup));
    const std::string day_name = "day " + std::to_string(d);
    if (!loaded.has_value()) {
      out.tally.fail(day_name + ": load failed: " + loaded.error().message);
      continue;
    }
    const md::DayCache::Day quotes = std::move(loaded.value());

    engine::PipelineConfig config;
    config.symbols = symbols;
    config.strategies = spec.strategies;
    config.day = quotes;
    config.corr_key.universe =
        "perfbench/" + std::to_string(symbols) + "/" + std::to_string(generator.seed);
    config.corr_key.date = d;
    config.corr_key.delta_s = spec.strategies.front().delta_s;
    config.corr_key.window = spec.strategies.front().corr_window;
    config.corr_key.estimator = spec.estimator;

    const auto stream = [&](mm::stats::CorrStore& store, mm::obs::TraceSink* sink,
                            double* wall) {
      engine::PipelineConfig c = config;
      c.corr_store = &store;
      if (sink != nullptr) {
        c.trace = sink;
        c.trace_context = mm::obs::make_trace_context(mm::obs::next_trace_id());
      }
      const auto t0 = Clock::now();
      auto result = engine::run_pipeline(c, universe, {});
      *wall = seconds_since(t0);
      all_stream_s += *wall;
      ++streams;
      if (opt.trace) ledger.add(result.metrics, workers, static_cast<double>(result.master.orders),
                                static_cast<double>(result.quotes_in));
      return result;
    };
    const double day_quotes = static_cast<double>(quotes->size());

    // Trace mode streams the day once more without a sink first, so the
    // traced and untraced rates come from the same input.
    if (opt.trace) {
      mm::stats::CorrStore scratch;
      double wall = 0.0;
      const auto plain = stream(scratch, nullptr, &wall);
      out.tally.op(!plain.degraded, day_name + ": untraced stream degraded");
      untraced_qps.push_back(day_quotes / wall);
    }

    // Cold: computes and publishes the day's correlation stream.
    mm::stats::CorrStore store;
    std::unique_ptr<mm::obs::TraceSink> sink;
    if (opt.trace) sink = std::make_unique<mm::obs::TraceSink>();
    double wall = 0.0;
    const auto cold = stream(store, sink.get(), &wall);
    cold_s.push_back(wall);
    cold_qps.push_back(day_quotes / wall);
    if (opt.trace) traced_qps.push_back(day_quotes / wall);
    if (sink != nullptr && d == 0 && !opt.trace_out.empty()) {
      if (auto written = sink->write_file(opt.trace_out); !written.has_value())
        out.notes.push_back("trace write failed: " + written.error().message);
      else
        out.notes.push_back("perfetto trace of day 0: " + opt.trace_out);
    }
    sink.reset();

    // Memoized: replays of the published stream.
    std::vector<engine::PipelineResult> replays;
    for (int r = 0; r < spec.replays_per_day; ++r) {
      double replay_wall = 0.0;
      replays.push_back(stream(store, nullptr, &replay_wall));
      memo_s.push_back(replay_wall);
    }

    std::printf("day %d: %zu quotes, cold %.4f s, replays", d, quotes->size(), wall);
    for (std::size_t r = memo_s.size() - replays.size(); r < memo_s.size(); ++r)
      std::printf(" %.4f", memo_s[r]);
    std::printf(" s, %llu orders, peak rss %.1f MB\n",
                static_cast<unsigned long long>(cold.master.orders), peak_rss_mb());

    // Checks, outside every timed interval.
    const bool single = opt.trace && d == 0;
    const Reference ref =
        reference_day(universe, *quotes, config, single ? 1 : ref_threads,
                      single ? &layers : nullptr);
    out.tally.op(!cold.degraded && matches_reference(cold.master, ref),
                 day_name + ": cold stream differs from the direct backtest");
    for (const auto& replay : replays)
      out.tally.op(!replay.degraded && same_summaries(replay.master, cold.master),
                   day_name + ": replay differs from the computed run");
    const auto store_stats = store.stats();
    if (store_stats.computes != 1)
      out.tally.fail(day_name + ": corr_store computed " +
                     std::to_string(store_stats.computes) + " times, expected 1");
    store_totals.computes += store_stats.computes;
    store_totals.hits += store_stats.hits;
    store_totals.waits += store_stats.waits;
  }

  const auto cache_stats = day_cache.stats();
  if (cache_stats.misses != static_cast<std::uint64_t>(days))
    out.tally.fail("day_cache.misses " + std::to_string(cache_stats.misses) + " != " +
                   std::to_string(days) + " distinct days");

  const std::size_t jobs = cold_s.size() + memo_s.size();
  if (!opt.trace) {
    out.metrics.add("quotes_per_s", median(cold_qps),
                    "1/s", n_note("median", cold_qps.size(), "days"));
    out.metrics.add("paramset_days_per_s",
                    static_cast<double>(workers) * static_cast<double>(jobs) / all_stream_s,
                    "1/s", std::to_string(jobs) + " runs x K=" + std::to_string(workers));
    out.metrics.add("memo_job_s_p50", median(memo_s), "s", n_note("p50", memo_s.size(), "replays"));
    out.metrics.add("memo_job_s_p90", quantile(memo_s, 0.9),
                    "s", n_note("p90", memo_s.size(), "replays"));
    out.metrics.add("cold_job_s_p50", median(cold_s),
                    "s", n_note("p50", cold_s.size(), "cold days"));
    out.metrics.add("setup_s", median(setup_s),
                    "s", n_note("median", setup_s.size(), "day set-ups"));
    out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    ledger.report(out.metrics);
    out.metrics.add("marketdata.generate_s", median(generate_s),
                    "s", n_note("median", generate_s.size(), "days"));
    out.metrics.add("marketdata.clean_s", layers.clean_s, "s", "day 0");
    out.metrics.add("marketdata.bam_s", layers.bam_s, "s", "day 0");
    out.metrics.add("stats.corr_series_s", layers.corr_series_s, "s", "day 0");
    out.metrics.add("core.pair_days_s", layers.pair_days_s, "s", "day 0, every pair x strategy");
    // The service's definitions applied to in-line days: compute is the
    // streams' wall time, exchange their credit stalls. Days run back to
    // back with nothing queued ahead of them, so the queue wait is 0.
    out.metrics.add("svc.queue_s_p50", 0.0, "s", "in-line days are never queued");
    out.metrics.add("svc.compute_s", all_stream_s, "s", std::to_string(streams) + " runs");
    double stalls = 0.0;
    for (const auto& [stage, stall] : ledger.stall_s) stalls += stall;
    out.metrics.add("svc.exchange_s", stalls,
                    "s", "credit stalls, all stages");
    out.metrics.add("corr_store.computes", static_cast<double>(store_totals.computes), "count");
    out.metrics.add("corr_store.hits", static_cast<double>(store_totals.hits), "count");
    out.metrics.add("corr_store.waits", static_cast<double>(store_totals.waits), "count");
    out.metrics.add("day_cache.misses", static_cast<double>(cache_stats.misses), "count");
    out.metrics.add("svc.memo_unit_share",
                    static_cast<double>(memo_s.size()) / static_cast<double>(jobs), "share");
    out.metrics.add("obs.trace_overhead_share", 1.0 - median(traced_qps) / median(untraced_qps),
                    "share", "1 - traced/untraced quotes_per_s");
    const std::string busiest = ledger.busiest(workers);
    out.notes.push_back("busiest stage: " + busiest + " (correlation " +
                        std::to_string(ledger.correlation_busy_s) + " s, strategy " +
                        std::to_string(ledger.strategy_busy_s / workers) +
                        " s per worker); designed: " + spec.bottleneck +
                        (busiest == spec.bottleneck ? " -- as designed" : " -- UNEXPECTED"));
    // Tiny days are too small for the design to hold.
    if (!opt.tiny) {
      out.busiest_stage = busiest;
      out.designed_stage = spec.bottleneck;
    }
  }
  return out;
}

// --- svc_mix ---------------------------------------------------------------

mm::svc::JobSpec mix_job(const std::string& tenant, std::size_t symbols,
                         std::uint64_t generator_seed, int day) {
  using mm::stats::Ctype;
  mm::svc::JobSpec spec;
  spec.tenant = tenant;
  spec.symbols = symbols;
  spec.seed = generator_seed;
  spec.day = day;
  // Two units: (∆s=30, M=60) Pearson and (∆s=30, M=100) Maronna-class.
  spec.paramsets = {strategy(Ctype::pearson, 60, 0.0002), strategy(Ctype::pearson, 60, 0.0005),
                    strategy(Ctype::maronna, 100, 0.0005),
                    strategy(Ctype::combined, 100, 0.0005)};
  return spec;
}

struct JobRecord {
  int day = 0;
  double latency_s = 0.0;
  std::shared_ptr<mm::svc::Job> job;  // null when the submit was rejected
};

bool job_done(const JobRecord& r) {
  return r.job != nullptr && r.job->state.load() == mm::svc::JobState::done;
}

bool same_outcomes(const mm::svc::JobResult& a, const mm::svc::JobResult& b) {
  if (a.paramsets.size() != b.paramsets.size()) return false;
  for (std::size_t i = 0; i < a.paramsets.size(); ++i) {
    const auto& x = a.paramsets[i];
    const auto& y = b.paramsets[i];
    if (x.index != y.index || x.trades != y.trades || x.total_pnl != y.total_pnl ||
        x.trade_returns != y.trade_returns)
      return false;
  }
  return true;
}

const mm::svc::StageLatency* stage(const mm::svc::JobResult& r, const char* name) {
  for (const auto& s : r.latency)
    if (s.stage == name) return &s;
  return nullptr;
}

Outcome run_svc_mix(const Options& opt) {
  namespace svc = mm::svc;
  Outcome out;
  const std::size_t symbols = opt.tiny ? 8 : 30;
  const std::uint64_t generator_seed = kDefaultGeneratorSeed + opt.seed;
  constexpr int kPoolDays = 2;
  // One cold writer job costs about 2.5 s on a 4-core host, in which each
  // reader completes about 5 jobs. Readers run 6 per writer job, so their
  // last jobs overlap the writer's and memo_job_s_p90 has about 10 samples
  // beyond it.
  const int writer_jobs =
      opt.tiny ? 2 : std::max(3, static_cast<int>(std::lround(opt.seconds / 2.5)));
  const int reader_jobs = opt.tiny ? 4 : 6 * writer_jobs;

  // Set-up: start the service and load the popular days into its DayCache.
  // It runs kSetups times, each on a fresh service, and the sweep uses the
  // last one: setup_s is the median, so one slow set-up does not move it.
  constexpr int kSetups = 9;
  std::unique_ptr<svc::BacktestService> service;
  std::vector<double> setup_s, preload_s;
  for (int r = 0; r < kSetups; ++r) {
    if (service != nullptr) service->stop();
    service.reset();
    const auto t_setup = Clock::now();
    service = std::make_unique<svc::BacktestService>(svc::ServiceConfig{});
    if (auto started = service->start(); !started.has_value()) {
      out.tally.fail("service start: " + started.error().message);
      return out;
    }
    for (int d = 0; d < kPoolDays; ++d) {
      const auto t0 = Clock::now();
      auto day = service->day_cache().get(mix_job("", symbols, generator_seed, d).day_key());
      preload_s.push_back(seconds_since(t0));
      if (!day.has_value()) out.tally.fail("preload: " + day.error().message);
    }
    setup_s.push_back(seconds_since(t_setup));
  }
  std::printf("set-ups:");
  for (const double x : setup_s) std::printf(" %.4f", x);
  std::printf(" s\n");
  const auto metrics_before = service->registry().snapshot();

  // Three closed-loop tenants, each with one job outstanding.
  std::vector<std::vector<JobRecord>> records(3);
  const auto client = [&](int c) {
    const bool writer = c == 2;
    const std::string tenant = writer ? "writer" : "reader-" + std::to_string(c);
    std::mt19937_64 rng(opt.seed * 3 + static_cast<std::uint64_t>(c));
    const int count = writer ? writer_jobs : reader_jobs;
    for (int j = 0; j < count; ++j) {
      JobRecord r;
      r.day = writer ? kPoolDays + j : static_cast<int>(rng() % kPoolDays);
      const auto t0 = Clock::now();
      auto id = service->submit(mix_job(tenant, symbols, generator_seed, r.day));
      if (id.has_value()) {
        service->wait(id.value());
        r.latency_s = seconds_since(t0);
        r.job = service->find(id.value());
      }
      records[static_cast<std::size_t>(c)].push_back(std::move(r));
    }
  };
  const auto t_sweep = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) clients.emplace_back(client, c);
    for (auto& t : clients) t.join();
  }
  const double makespan_s = seconds_since(t_sweep);
  const auto sweep_metrics = service->registry().snapshot().delta(metrics_before);
  const auto store_stats = service->corr_store().stats();
  const auto cache_stats = service->day_cache().stats();

  // Checks, after the sweep.
  std::vector<double> memo_s, cold_s, queue_s;
  double compute_s = 0.0, exchange_s = 0.0, quotes = 0.0;
  std::uint64_t done = 0, units = 0, units_cached = 0, orders = 0;
  std::map<int, const JobRecord*> first_of_day;
  for (const auto& per_client : records)
    for (const auto& r : per_client) {
      const bool ok = job_done(r);
      out.tally.op(ok, "day " + std::to_string(r.day) + ": job not done (" +
                           (r.job ? mm::svc::to_string(r.job->state.load()) : "rejected") + ")");
      if (!ok) continue;
      ++done;
      const auto& result = r.job->result;
      (result.units_from_cache == result.units ? memo_s : cold_s).push_back(r.latency_s);
      units += static_cast<std::uint64_t>(result.units);
      units_cached += static_cast<std::uint64_t>(result.units_from_cache);
      orders += result.orders;
      if (const auto* q = stage(result, "queue")) queue_s.push_back(q->p50_ns * 1e-9);
      if (const auto* c = stage(result, "compute")) compute_s += c->total_ns * 1e-9;
      if (const auto* x = stage(result, "exchange")) exchange_s += x->total_ns * 1e-9;
      const auto day = service->day_cache().peek(r.job->spec.day_key());
      if (day != nullptr)
        quotes += static_cast<double>(day->size()) * result.units;
      auto [it, inserted] = first_of_day.emplace(r.day, &r);
      if (!inserted && !same_outcomes(it->second->job->result, result))
        out.tally.fail("day " + std::to_string(r.day) + ": job outcomes differ");
    }
  // Every writer day ran once, computing its units: replay it and compare.
  for (int j = 0; j < writer_jobs; ++j) {
    const int day = kPoolDays + j;
    auto it = first_of_day.find(day);
    if (it == first_of_day.end()) continue;
    auto id = service->submit(mix_job("verify", symbols, generator_seed, day));
    JobRecord v;
    if (id.has_value()) {
      service->wait(id.value());
      v.job = service->find(id.value());
    }
    out.tally.op(job_done(v) && v.job->result.units_from_cache == v.job->result.units &&
                     same_outcomes(v.job->result, it->second->job->result),
                 "day " + std::to_string(day) + ": replay differs from the computed job");
  }
  // Compute-once: one correlation day per distinct (day, unit) key and one
  // day load per distinct day.
  const std::uint64_t distinct_days = first_of_day.size();
  if (store_stats.computes != 2 * distinct_days)
    out.tally.fail("corr_store.computes " + std::to_string(store_stats.computes) +
                   " != 2 x " + std::to_string(distinct_days) + " distinct days");
  const std::uint64_t loaded_days =
      static_cast<std::uint64_t>(kPoolDays) + static_cast<std::uint64_t>(writer_jobs);
  if (cache_stats.misses != loaded_days)
    out.tally.fail("day_cache.misses " + std::to_string(cache_stats.misses) + " != " +
                   std::to_string(loaded_days) + " distinct days");

  if (!opt.trace) {
    out.metrics.add("quotes_per_s", quotes / makespan_s, "1/s", "all units, over the sweep");
    out.metrics.add("paramset_days_per_s", 4.0 * static_cast<double>(done) / makespan_s, "1/s",
                    std::to_string(done) + " jobs x 4 paramsets");
    out.metrics.add("memo_job_s_p50", median(memo_s),
                    "s", n_note("p50", memo_s.size(), "memo jobs"));
    out.metrics.add("memo_job_s_p90", quantile(memo_s, 0.9),
                    "s", n_note("p90", memo_s.size(), "memo jobs"));
    out.metrics.add("cold_job_s_p50", median(cold_s),
                    "s", n_note("p50", cold_s.size(), "cold jobs"));
    out.metrics.add("setup_s", median(setup_s), "s",
                    n_note("median", setup_s.size(), "set-ups: service start + " +
                                                         std::to_string(kPoolDays) + " day loads"));
    out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Ledger ledger;
    ledger.add(sweep_metrics, 2, static_cast<double>(orders), quotes);
    ledger.report(out.metrics);
    // Standalone direct-path calls on popular day 0 with the Maronna unit.
    const mm::md::Universe universe = mm::md::make_universe(symbols);
    mm::engine::PipelineConfig config;
    config.symbols = symbols;
    config.strategies = {strategy(mm::stats::Ctype::maronna, 100, 0.0005),
                         strategy(mm::stats::Ctype::combined, 100, 0.0005)};
    LayerTimes layers;
    const auto day0 = service->day_cache().peek(mix_job("", symbols, generator_seed, 0).day_key());
    if (day0 != nullptr) reference_day(universe, *day0, config, 1, &layers);
    out.metrics.add("marketdata.generate_s", median(preload_s),
                    "s", n_note("median", preload_s.size(), "day loads"));
    out.metrics.add("marketdata.clean_s", layers.clean_s, "s", "popular day 0");
    out.metrics.add("marketdata.bam_s", layers.bam_s, "s", "popular day 0");
    out.metrics.add("stats.corr_series_s", layers.corr_series_s,
                    "s", "popular day 0, Maronna unit");
    out.metrics.add("core.pair_days_s", layers.pair_days_s, "s", "popular day 0, Maronna unit");
    out.metrics.add("svc.queue_s_p50", median(queue_s), "s", n_note("p50", queue_s.size(), "jobs"));
    out.metrics.add("svc.compute_s", compute_s, "s", "summed over jobs");
    out.metrics.add("svc.exchange_s", exchange_s, "s", "summed over jobs");
    out.metrics.add("corr_store.computes", static_cast<double>(store_stats.computes), "count");
    out.metrics.add("corr_store.hits", static_cast<double>(store_stats.hits), "count");
    out.metrics.add("corr_store.waits", static_cast<double>(store_stats.waits), "count");
    out.metrics.add("day_cache.misses", static_cast<double>(cache_stats.misses), "count");
    const double memo_share =
        units > 0 ? static_cast<double>(units_cached) / static_cast<double>(units) : 0.0;
    out.metrics.add("svc.memo_unit_share", memo_share, "share");
    // Service jobs always trace, so measure the overhead on the service's
    // hot path directly: popular day 0's Maronna unit replayed from the
    // service's CorrStore, alternately without and with a trace sink.
    std::vector<double> plain_s, traced_s;
    if (day0 != nullptr) {
      const auto spec0 = mix_job("", symbols, generator_seed, 0);
      mm::engine::PipelineConfig unit = config;
      unit.day = day0;
      unit.corr_store = &service->corr_store();
      unit.corr_key = {spec0.universe_key(), 0, 30, 100, "pearson+maronna"};
      for (int r = 0; r < 3; ++r)
        for (const bool traced : {false, true}) {
          mm::obs::TraceSink sink;
          mm::engine::PipelineConfig c = unit;
          if (traced) {
            c.trace = &sink;
            c.trace_context = mm::obs::make_trace_context(mm::obs::next_trace_id());
          }
          const auto t0 = Clock::now();
          const auto run = mm::engine::run_pipeline(c, universe, {});
          (traced ? traced_s : plain_s).push_back(seconds_since(t0));
          out.tally.op(!run.degraded, "trace-overhead replay degraded");
        }
      if (service->corr_store().stats().computes != store_stats.computes)
        out.tally.fail("trace-overhead replays missed the CorrStore");
    }
    out.metrics.add("obs.trace_overhead_share",
                    plain_s.empty() ? 0.0 : 1.0 - median(plain_s) / median(traced_s), "share",
                    "1 - traced/untraced rate, 3 replay pairs of popular day 0");
  }
  service->stop();
  return out;
}

// ---------------------------------------------------------------------------

const char* transport_name(mm::mpi::TransportMode mode) {
  switch (mode) {
    case mm::mpi::TransportMode::ring: return "ring";
    case mm::mpi::TransportMode::locked: return "locked";
    case mm::mpi::TransportMode::socket: return "socket";
  }
  return "?";
}

// Aggregate CPU times from the first line of /proc/stat: {steal, total}.
// Steal is time the hypervisor ran something else on this guest's CPUs;
// pipeline days slow down sharply when it rises.
std::pair<double, double> cpu_steal_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const auto x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mm_perfbench: %s\n"
               "usage: mm_perfbench --workload day_pearson|day_maronna|svc_mix --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") opt.workload = v;
    else if (arg == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") opt.trace = std::strcmp(v, "0") != 0;
    else if (arg == "--trace-out") opt.trace_out = v;
    else return usage(("unknown argument " + arg).c_str());
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  using mm::stats::Ctype;
  const double load_start = load_average();
  const auto steal_start = cpu_steal_total();
  Outcome out;
  if (opt.workload == "day_pearson") {
    out = run_days(opt, {{strategy(Ctype::pearson, 100, 0.0002),
                          strategy(Ctype::pearson, 100, 0.0005)},
                         "pearson", 2.0, 4, "strategy"});
  } else if (opt.workload == "day_maronna") {
    out = run_days(opt, {{strategy(Ctype::maronna, 100, 0.0005),
                          strategy(Ctype::combined, 100, 0.0005)},
                         "pearson+maronna", 13.0, 4, "correlation"});
  } else if (opt.workload == "svc_mix") {
    out = run_svc_mix(opt);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  auto context = mm::json::Value::object();
  context.set("workload", opt.workload);
  context.set("seed", static_cast<std::int64_t>(opt.seed));
  context.set("trace", opt.trace ? 1 : 0);
  context.set("tiny", opt.tiny ? 1 : 0);
  context.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  context.set("build_type", MM_PERFBENCH_BUILD_TYPE);
  context.set("simd", mm::stats::simd::level_name(mm::stats::simd::active_level()));
  context.set("transport", transport_name(mm::mpi::transport_mode()));
  context.set("obs_enabled", MM_OBS_ENABLED);
  context.set("loadavg_start", load_start);
  context.set("loadavg_end", load_average());
  const auto steal_end = cpu_steal_total();
  const double elapsed = steal_end.second - steal_start.second;
  context.set("steal_share",
              elapsed > 0.0 ? (steal_end.first - steal_start.first) / elapsed : 0.0);
  if (!out.busiest_stage.empty()) {
    context.set("busiest_stage", out.busiest_stage);
    context.set("designed_stage", out.designed_stage);
  }

  const bool correct = out.tally.failed == 0 && out.tally.attempted > 0;
  std::printf("perfbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  out.metrics.print_lines();
  std::printf("  %-34s = %.6g share  (%llu failed of %llu operations)\n", "failed_share",
              out.tally.attempted > 0
                  ? static_cast<double>(out.tally.failed) / static_cast<double>(out.tally.attempted)
                  : 1.0,
              static_cast<unsigned long long>(out.tally.failed),
              static_cast<unsigned long long>(out.tally.attempted));
  for (const auto& note : out.notes) std::printf("  note: %s\n", note.c_str());
  for (const auto& error : out.tally.errors) std::printf("  FAILED: %s\n", error.c_str());
  std::printf("# context %s\n", context.dump().c_str());

  auto result = mm::json::Value::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<std::int64_t>(out.tally.attempted));
  result.set("failed", static_cast<std::int64_t>(out.tally.failed));
  result.set("metrics", out.metrics.json());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
