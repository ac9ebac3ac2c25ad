#include "obs/live.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/prometheus.hpp"

namespace mm::obs {

LivePlane::LivePlane(LiveConfig config, Registry& registry,
                     const TraceSink* trace)
    : config_(std::move(config)), registry_(registry), trace_(trace) {}

LivePlane::~LivePlane() {
  if (active_) end_run({});
}

void LivePlane::begin_run(int ranks, std::vector<std::string> rank_names) {
  if (!config_.enabled || ranks <= 0 || active_) return;
  rank_nodes_ = std::move(rank_names);

  board_ = std::make_unique<HeartbeatBoard>(ranks);
  HeartbeatMonitor::Config mc;
  mc.interval = config_.heartbeat_interval;
  mc.suspect_after = config_.suspect_after;
  mc.dead_after = config_.dead_after;
  monitor_ = std::make_unique<HeartbeatMonitor>(*board_, mc);
  monitor_->start();

  SnapshotScheduler::Config sc;
  sc.period = config_.snapshot_period;
  sc.ring_capacity = std::max<std::size_t>(config_.snapshot_ring, 2);
  sc.step_histogram = config_.step_histogram;
  scheduler_ = std::make_unique<SnapshotScheduler>(registry_, sc);
  scheduler_->start();

  if (config_.http_port >= 0 && config_.http_port <= 65535) {
    server_ = std::make_unique<MetricsServer>();
    server_->route("/metrics", [this] {
      return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                          render_metrics()};
    });
    server_->route("/healthz", [this] { return healthz(); });
    if (Status s = server_->start(static_cast<std::uint16_t>(config_.http_port));
        !s) {
      MM_LOG_WARN("obs: metrics listener disabled: " << s.error().to_string());
      server_.reset();
    } else {
      MM_LOG_INFO("obs: serving /metrics on 127.0.0.1:" << server_->port());
      if (config_.port_out != nullptr)
        config_.port_out->store(server_->port(), std::memory_order_release);
    }
  }
  active_ = true;
}

LiveReport LivePlane::end_run(std::vector<CrashEntry> caller_crashes) {
  LiveReport report;
  if (!active_) return report;
  active_ = false;
  report.enabled = true;
  report.rank_nodes = rank_nodes_;

  // Listener first: handlers must not observe half-torn-down internals.
  if (server_) {
    report.http_port = server_->port();
    server_->stop();
  }
  scheduler_->tick();  // final frame so the bundle sees the run's last state
  scheduler_->stop();
  // Rank threads have exited, beats have stopped: every rank converges to
  // done (retired) or down (silent) within dead_after x interval.
  monitor_->settle();
  monitor_->stop();
  report.health = monitor_->all();

  const auto node_name = [this](int rank) {
    return rank >= 0 && rank < static_cast<int>(rank_nodes_.size())
               ? rank_nodes_[static_cast<std::size_t>(rank)]
               : std::string{};
  };
  report.crashes = std::move(caller_crashes);
  for (CrashEntry& c : report.crashes) {
    if (c.node.empty()) c.node = node_name(c.rank);
    if (c.rank >= 0 && c.rank < static_cast<int>(report.health.size()))
      c.health = report.health[static_cast<std::size_t>(c.rank)];
  }
  for (const int rank : monitor_->dead_ranks()) {
    const bool reported =
        std::any_of(report.crashes.begin(), report.crashes.end(),
                    [rank](const CrashEntry& c) { return c.rank == rank; });
    if (reported) continue;
    CrashEntry entry;
    entry.rank = rank;
    entry.node = node_name(rank);
    entry.reason = "heartbeat";
    entry.error = "rank went silent past the dead threshold";
    entry.health = report.health[static_cast<std::size_t>(rank)];
    report.crashes.push_back(std::move(entry));
  }

  const Snapshot final_snap = registry_.snapshot();
  if (!config_.metrics_dump_path.empty()) {
    std::string page = prom_render(final_snap);
    page += prom_render_health(report.health, rank_nodes_, now_ns());
    std::FILE* f = std::fopen(config_.metrics_dump_path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(page.data(), 1, page.size(), f);
      std::fclose(f);
    } else {
      MM_LOG_WARN("obs: cannot write metrics dump " << config_.metrics_dump_path);
    }
  }

  if (!report.crashes.empty()) {
    FlightRecorder recorder(
        FlightRecorder::Config{config_.flight_dir, config_.flight_frames});
    auto bundle = recorder.dump(report.crashes, report.health, rank_nodes_,
                                trace_, scheduler_->frames(), final_snap);
    if (bundle) {
      report.flight_bundle = *bundle;
      MM_LOG_WARN("obs: flight bundle written to " << report.flight_bundle);
    } else {
      MM_LOG_WARN("obs: flight dump failed: " << bundle.error().to_string());
    }
  }
  return report;
}

std::string LivePlane::render_metrics() const {
  std::string out = prom_render(registry_.snapshot());
  if (monitor_) out += prom_render_health(monitor_->all(), rank_nodes_, now_ns());
  if (scheduler_) out += prom_render_rates(scheduler_->rates(), now_ns());
  return out;
}

HttpResponse LivePlane::healthz() const {
  if (!monitor_) return {200, "text/plain; charset=utf-8", "ok\n"};
  std::string down;
  for (const int rank : monitor_->dead_ranks()) {
    if (!down.empty()) down += ", ";
    down += format("rank %d", rank);
    if (rank < static_cast<int>(rank_nodes_.size()) &&
        !rank_nodes_[static_cast<std::size_t>(rank)].empty())
      down += " (" + rank_nodes_[static_cast<std::size_t>(rank)] + ")";
  }
  if (down.empty()) return {200, "text/plain; charset=utf-8", "ok\n"};
  return {503, "text/plain; charset=utf-8", "down: " + down + "\n"};
}

}  // namespace mm::obs
