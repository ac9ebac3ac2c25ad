#include "engine/pipeline.hpp"

#include <memory>

#include "common/timer.hpp"
#include "dagflow/context.hpp"
#include "dagflow/graph.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/tickdb.hpp"

namespace mm::engine {

PipelineResult run_pipeline(const PipelineConfig& config, const md::Universe& universe,
                            std::vector<md::Quote> quotes) {
  MM_ASSERT_MSG(!config.strategies.empty(), "pipeline needs at least one strategy");
  const auto& base = config.strategies.front();
  for (const auto& s : config.strategies) {
    MM_ASSERT_MSG(s.delta_s == base.delta_s && s.corr_window == base.corr_window,
                  "all pipeline strategies must share (delta_s, M); see DESIGN.md");
    MM_ASSERT(s.validate().has_value());
  }
  MM_ASSERT(universe.table.size() == config.symbols);

  const md::Session session;
  const std::int64_t smax = session.interval_count(base.delta_s);
  bool need_maronna = false;
  for (const auto& s : config.strategies)
    if (s.ctype != stats::Ctype::pearson) need_maronna = true;

  // The day the collector streams: the caller's shared day, else a tickdb
  // day, else the quotes argument.
  std::shared_ptr<const std::vector<md::Quote>> day = config.day;
  if (day == nullptr && !config.tickdb_root.empty()) {
    auto db = md::TickDb::open(config.tickdb_root);
    MM_ASSERT_MSG(db.has_value(), "db collector: cannot open tickdb");
    auto read = db->read_day(config.date);
    MM_ASSERT_MSG(read.has_value(), "db collector: cannot read day");
    day = std::make_shared<const std::vector<md::Quote>>(std::move(*read));
  } else if (day == nullptr) {
    day = std::make_shared<const std::vector<md::Quote>>(std::move(quotes));
  }
  const auto quotes_in = static_cast<std::uint64_t>(day->size());
  const int k = static_cast<int>(config.strategies.size());
  const bool clustering = config.cluster_every > 0;
  // Correlation fan-out: one port per strategy, plus the clustering branch.
  const int corr_fan_out = k + (clustering ? 1 : 0);

  MasterReport master;

  dag::Graph graph;
  const int collector = graph.add_node(
      "collector", make_collector(std::move(day), config.batch_size, config.replay_speedup));
  const int cleaner =
      graph.add_node("cleaner", make_cleaner(config.symbols, config.cleaner));
  const int snapshot = graph.add_node(
      "snapshot", make_snapshot_stage(config.symbols, session, base.delta_s,
                                      universe.base_price));
  const int corr = graph.add_group_node(
      "correlation",
      make_correlation_stage(config.symbols, base.corr_window, need_maronna,
                             config.maronna, corr_fan_out, config.replica_deadline,
                             config.corr_store, config.corr_key, smax),
      need_maronna ? config.correlation_replicas : 1);

  // Optional clustering branch: corr port k -> cluster stage -> snapshot sink.
  std::vector<ClusterSnapshot> cluster_log;
  int cluster_node = -1, cluster_sink = -1;
  if (clustering) {
    cluster_node = graph.add_node(
        "cluster", make_cluster_stage(config.symbols, config.cluster_count,
                                      config.cluster_every));
    cluster_sink = graph.add_node("cluster-sink", [&cluster_log](dag::Context& ctx) {
      while (auto msg = ctx.recv()) {
        mpi::Unpacker u(msg->bytes);
        MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) ==
                  RecordType::cluster_snapshot);
        cluster_log.push_back(ClusterSnapshot::unpack(u));
      }
    });
  }
  std::vector<int> workers;
  const auto pairs = stats::all_pairs(config.symbols);
  for (int w = 0; w < k; ++w) {
    workers.push_back(graph.add_node(
        "strategy-" + std::to_string(w),
        make_strategy_stage(config.strategies[static_cast<std::size_t>(w)], pairs, w,
                            smax)));
  }
  const int master_node = graph.add_node("master", make_master(&master, config.risk));

  graph.connect(collector, 0, cleaner, 0, config.channel_capacity);
  graph.connect(cleaner, 0, snapshot, 0, config.channel_capacity);
  graph.connect(snapshot, 0, corr, 0, config.channel_capacity);
  for (int w = 0; w < k; ++w) {
    graph.connect(corr, w, workers[static_cast<std::size_t>(w)], 0,
                  config.channel_capacity);
    graph.connect(workers[static_cast<std::size_t>(w)], 0, master_node, w,
                  config.channel_capacity);
  }
  if (clustering) {
    graph.connect(corr, k, cluster_node, 0, config.channel_capacity);
    graph.connect(cluster_node, 0, cluster_sink, 0, config.channel_capacity);
  }

  // Telemetry: the caller's registry when supplied, else a private one whose
  // aggregate outlives the run only through the snapshot below.
  obs::Registry local_metrics;
  obs::Registry* metrics = config.metrics != nullptr ? config.metrics : &local_metrics;
  // Shared-registry hygiene: result.metrics is a delta against run start, so
  // a second day on the same registry reports only its own traffic.
  const obs::Snapshot metrics_before = metrics->snapshot();

  obs::LivePlane live(config.live, *metrics, config.trace);
  live.begin_run(graph.rank_count(), graph.rank_node_names());

  dag::RunOptions options;
  options.fault = config.fault;
  options.pump_timeout = config.stage_deadline;
  options.metrics = metrics;
  options.trace = config.trace;
  options.trace_context = config.trace_context;
  options.heartbeat = live.board();
  options.heartbeat_interval = live.heartbeat_interval();
  options.rendezvous = config.rendezvous;

  Stopwatch watch;
  const dag::RunResult run_result = graph.run(options);

  // Hand failed nodes to the live plane as crash entries (mapped to their
  // leader rank); it merges in any rank the heartbeat monitor saw go silent
  // and dumps a flight bundle if the set is non-empty.
  std::vector<obs::CrashEntry> crashes;
  const std::vector<std::string> rank_names = graph.rank_node_names();
  for (const auto& status : run_result.nodes) {
    if (!status.failed) continue;
    obs::CrashEntry entry;
    for (std::size_t r = 0; r < rank_names.size(); ++r) {
      if (rank_names[r] == status.name) {
        entry.rank = static_cast<int>(r);
        break;
      }
    }
    entry.node = status.name;
    entry.reason = "exception";
    entry.error = status.error;
    crashes.push_back(std::move(entry));
  }

  PipelineResult result;
  result.master = std::move(master);
  result.live = live.end_run(std::move(crashes));
  result.metrics = metrics->snapshot().delta(metrics_before);
  result.clusters = std::move(cluster_log);
  result.wall_seconds = watch.elapsed_seconds();
  result.quotes_in = quotes_in;
  result.quotes_per_second =
      result.wall_seconds > 0.0 ? static_cast<double>(quotes_in) / result.wall_seconds
                                : 0.0;
  result.degraded = !run_result.ok();
  for (const auto& status : run_result.nodes)
    if (!status.ok()) result.faults.push_back(status);
  // Stage reports read this run's metrics delta: records are dagflow's frame
  // counters, items and faults the components' engine.<node>.* counters.
  const auto counter = [&result](const std::string& name) -> std::uint64_t {
    const obs::MetricValue* m = result.metrics.find(name);
    return m != nullptr ? static_cast<std::uint64_t>(m->value) : 0;
  };
  std::vector<std::string> stage_names = {"collector", "cleaner", "snapshot",
                                          "correlation"};
  for (int w = 0; w < k; ++w) stage_names.push_back("strategy-" + std::to_string(w));
  stage_names.push_back("master");
  for (const auto& name : stage_names) {
    const std::string dag = "dag." + name, engine = "engine." + name;
    result.stages.push_back({name, counter(dag + ".frames_in"),
                             counter(dag + ".frames_out"), counter(engine + ".items_in"),
                             counter(engine + ".items_out"),
                             counter(engine + ".reshards")});
  }
  return result;
}

SessionResult run_pipeline_session(const PipelineConfig& config,
                                   const md::Universe& universe,
                                   const md::GeneratorConfig& generator,
                                   int day_count) {
  MM_ASSERT_MSG(day_count >= 1, "session needs at least one day");
  Stopwatch watch;
  SessionResult session;
  session.days.reserve(static_cast<std::size_t>(day_count));
  for (int d = 0; d < day_count; ++d) {
    const md::SyntheticDay day(universe, generator, d);
    auto result = run_pipeline(config, universe, day.quotes());
    session.total_trades += result.master.trades;
    session.total_orders += result.master.orders;
    session.total_pnl += result.master.total_pnl;
    session.daily_pnl.push_back(result.master.total_pnl);
    session.days.push_back(std::move(result));
  }
  session.wall_seconds = watch.elapsed_seconds();
  return session;
}

}  // namespace mm::engine
