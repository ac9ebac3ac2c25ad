#include "engine/pipeline.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "common/strings.hpp"
#include "common/timer.hpp"
#include "dagflow/context.hpp"
#include "dagflow/graph.hpp"
#include "mpmini/socket_transport.hpp"

namespace mm::engine {

stats::CorrKey stamped_corr_key(const PipelineConfig& config) {
  // The bindings name every field, so a field added to either config stops
  // this compiling until it joins the fingerprint. %a prints doubles exactly.
  const auto& [mean_gain, dev_gain, band_k, warmup_ticks, min_dev_frac,
               level_shift_ticks] = config.cleaner;
  const auto& [huber_k2, tolerance, max_iterations] = config.maronna;
  stats::CorrKey key = config.corr_key;
  key.frames_config =
      format("%a,%a,%a,%d,%a,%d;%a,%a,%d", mean_gain, dev_gain, band_k, warmup_ticks,
             min_dev_frac, level_shift_ticks, huber_k2, tolerance, max_iterations);
  return key;
}

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
  MM_ASSERT_MSG(config.corr_store == nullptr || config.rendezvous == nullptr,
                "corr_store is in-process only: every process must build one graph");

  const md::Session session;
  const std::int64_t smax = session.interval_count(base.delta_s);
  bool need_maronna = false;
  for (const auto& s : config.strategies)
    if (s.ctype != stats::Ctype::pearson) need_maronna = true;

  // Memoization: the day is looked up once, before wiring (blocking while
  // another run computes it). A hit builds the replay graph; a miss records.
  std::optional<stats::CorrStore::Lease> lease;
  if (config.corr_store != nullptr)
    lease.emplace(config.corr_store->acquire(stamped_corr_key(config)));
  const std::shared_ptr<const stats::CorrDay> replay = lease ? lease->data() : nullptr;
  stats::CorrDay recorded;

  const int k = static_cast<int>(config.strategies.size());
  const bool clustering = config.cluster_every > 0;
  // Correlation fan-out: one port per strategy, plus the clustering branch.
  const int corr_fan_out = k + (clustering ? 1 : 0);

  MasterReport master;
  dag::Graph graph;
  std::vector<std::string> stage_names;
  std::uint64_t quotes_in = 0;
  int frames_source = -1;  // the node whose ports carry the CorrFrames
  if (replay != nullptr) {
    // The stored frames are the bytes the correlation stage emitted, so
    // every consumer downstream is bit-identical to that run.
    frames_source = graph.add_node("replay", [replay, corr_fan_out](dag::Context& ctx) {
      for (const auto& packed : replay->frames)
        for (int port = 0; port < corr_fan_out; ++port) ctx.emit(port, packed);
    });
    stage_names = {"replay"};
  } else {
    // The day the collector streams: the caller's shared day, else the
    // quotes argument. The collector is the graph's first node, so world
    // rank 0 runs it; in multi-process mode every other process streams
    // nothing and reads no day.
    constexpr int kCollectorRank = 0;
    const bool hosts_collector =
        config.rendezvous == nullptr || config.rendezvous->rank == kCollectorRank;
    std::shared_ptr<const std::vector<md::Quote>> day = config.day;
    if (!hosts_collector) {
      day = std::make_shared<const std::vector<md::Quote>>();
    } else if (day == nullptr) {
      day = std::make_shared<const std::vector<md::Quote>>(std::move(quotes));
    }
    quotes_in = static_cast<std::uint64_t>(day->size());
    if (lease) recorded.frames.reserve(static_cast<std::size_t>(smax));

    const int collector = graph.add_node(
        "collector", make_collector(std::move(day), config.batch_size, config.replay_speedup));
    MM_ASSERT(collector == kCollectorRank);
    const int cleaner =
        graph.add_node("cleaner", make_cleaner(config.symbols, config.cleaner));
    const int snapshot = graph.add_node(
        "snapshot", make_snapshot_stage(config.symbols, session, base.delta_s,
                                        universe.base_price));
    frames_source = graph.add_group_node(
        "correlation",
        make_correlation_stage(config.symbols, base.corr_window, need_maronna,
                               config.maronna, corr_fan_out, config.replica_deadline,
                               lease ? &recorded : nullptr),
        need_maronna ? config.correlation_replicas : 1);
    graph.connect(collector, 0, cleaner, 0, config.channel_capacity);
    graph.connect(cleaner, 0, snapshot, 0, config.channel_capacity);
    graph.connect(snapshot, 0, frames_source, 0, config.channel_capacity);
    stage_names = {"collector", "cleaner", "snapshot", "correlation"};
  }

  // Optional clustering branch: frames port k -> cluster stage -> snapshot sink.
  std::vector<ClusterSnapshot> cluster_log;
  if (clustering) {
    const int cluster_node = graph.add_node(
        "cluster", make_cluster_stage(config.symbols, config.cluster_count,
                                      config.cluster_every));
    const int cluster_sink =
        graph.add_node("cluster-sink", [&cluster_log](dag::Context& ctx) {
          while (auto msg = ctx.recv()) {
            mpi::Unpacker u(msg->bytes);
            const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
            if (type != RecordType::cluster_snapshot)
              throw std::runtime_error(format("cluster-sink: unexpected record type %u",
                                              static_cast<unsigned>(type)));
            cluster_log.push_back(ClusterSnapshot::unpack(u));
          }
        });
    graph.connect(frames_source, k, cluster_node, 0, config.channel_capacity);
    graph.connect(cluster_node, 0, cluster_sink, 0, config.channel_capacity);
  }
  std::vector<int> workers;
  for (int w = 0; w < k; ++w) {
    stage_names.push_back("strategy-" + std::to_string(w));
    workers.push_back(graph.add_node(
        stage_names.back(),
        make_strategy_stage(config.strategies[static_cast<std::size_t>(w)], w, smax)));
  }
  const int master_node =
      graph.add_node("master", make_master(&master, config.symbols, config.risk));
  stage_names.push_back("master");
  for (int w = 0; w < k; ++w) {
    graph.connect(frames_source, w, workers[static_cast<std::size_t>(w)], 0,
                  config.channel_capacity);
    graph.connect(workers[static_cast<std::size_t>(w)], 0, master_node, w,
                  config.channel_capacity);
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

  // Publish only a day the whole run computed: after a failed upstream the
  // snapshot stage still pads the session out to smax frames. Otherwise the
  // lease's destructor abandons the key and one waiter inherits the compute.
  if (lease && lease->owner() && run_result.ok() &&
      recorded.frames.size() == static_cast<std::size_t>(smax))
    lease->publish(std::move(recorded));
  lease.reset();

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
  result.replayed = replay != nullptr;
  for (const auto& status : run_result.nodes)
    if (!status.ok()) result.faults.push_back(status);
  // Stage reports read this run's metrics delta: records are dagflow's frame
  // counters, items and faults the components' engine.<node>.* counters.
  const auto counter = [&result](const std::string& name) -> std::uint64_t {
    const obs::MetricValue* m = result.metrics.find(name);
    return m != nullptr ? static_cast<std::uint64_t>(m->value) : 0;
  };
  for (const auto& name : stage_names) {
    const std::string dag = "dag." + name, engine = "engine." + name;
    result.stages.push_back({name, counter(dag + ".frames_in"),
                             counter(dag + ".frames_out"), counter(engine + ".items_in"),
                             counter(engine + ".items_out"),
                             counter(engine + ".reshards")});
  }
  return result;
}

}  // namespace mm::engine
