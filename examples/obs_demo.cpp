// Observability demo: run one synthetic trading day through the Fig. 1
// pipeline with mm::obs fully wired, then
//
//   1. print the metrics snapshot (mpmini transport counters, per-node
//      dagflow frame/stall metrics, correlation kernel and engine stage
//      histograms), and
//   2. write a Chrome-trace JSON of the run — one "process" row per mpmini
//      rank, one named "thread" row per dagflow node — loadable in
//      chrome://tracing or https://ui.perfetto.dev.
//
//   $ ./obs_demo [--symbols 8] [--workers 2] [--replicas 2] \
//                [--trace obs_demo.trace.json] [--json]
#include <cstdio>

#include "common/cli.hpp"
#include "core/params.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace mm;
  Cli cli("obs_demo", "Run one day with telemetry and write a Chrome trace");
  auto& symbols = cli.add_int("symbols", 8, "universe size");
  auto& workers = cli.add_int("workers", 2, "strategy worker nodes");
  auto& replicas = cli.add_int("replicas", 2, "correlation engine replicas");
  auto& seed = cli.add_int("seed", 20080303, "generator seed");
  auto& trace_path = cli.add_string("trace", "obs_demo.trace.json",
                                    "output path for the Chrome trace");
  auto& json = cli.add_flag("json", "print the snapshot as JSON instead of text");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(symbols);
  const auto universe = md::make_universe(n);
  md::GeneratorConfig gen;
  gen.seed = static_cast<std::uint64_t>(seed);
  gen.quote_rate = 0.3;
  const md::SyntheticDay day(universe, gen, 0);

  engine::PipelineConfig cfg;
  cfg.symbols = n;
  cfg.correlation_replicas = replicas;
  const auto all = core::ParamGrid().all();
  for (const auto& p : all) {
    if (p.corr_window != 100) continue;
    cfg.strategies.push_back(p);
    if (static_cast<std::int64_t>(cfg.strategies.size()) >= workers) break;
  }

  // The demo owns the registry and sink; run_pipeline would otherwise use a
  // private registry and return only the snapshot.
  obs::Registry metrics;
  obs::TraceSink trace;
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  // Root causal context: every send inherits it, so the whole day stitches
  // into one trace with cross-rank flow arrows instead of per-rank rows.
  cfg.trace_context = obs::make_trace_context(obs::next_trace_id());

  const auto result = engine::run_pipeline(cfg, universe, day.quotes());

  std::printf("day complete: %llu quotes in %.2f s, %llu orders, pnl $%.2f%s\n\n",
              static_cast<unsigned long long>(result.quotes_in), result.wall_seconds,
              static_cast<unsigned long long>(result.master.orders),
              result.master.total_pnl, result.degraded ? " (degraded)" : "");

  if (json) {
    std::printf("%s\n", result.metrics.to_json().c_str());
  } else {
    std::printf("%s", result.metrics.to_string().c_str());
  }

  const auto status = trace.write_file(trace_path);
  if (!status.has_value()) {
    std::fprintf(stderr, "trace write failed: %s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("\ntrace: %llu events (%llu dropped, %llu cross-rank stitches) -> %s\n",
              static_cast<unsigned long long>(trace.total_events()),
              static_cast<unsigned long long>(trace.total_dropped()),
              static_cast<unsigned long long>(trace.total_flow_finishes()),
              trace_path.c_str());
  std::printf("open chrome://tracing or https://ui.perfetto.dev and load the file\n");
  return 0;
}
