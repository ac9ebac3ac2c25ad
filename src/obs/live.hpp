// LivePlane — the monitoring plane's front door, owned by one engine run.
//
// Composes the pieces the rest of mm::obs provides into the lifecycle the
// engine needs:
//
//   begin_run(ranks)   create the heartbeat board, start the monitor and the
//                      periodic snapshot scheduler, bring up the /metrics +
//                      /healthz loopback HTTP listener (port 0 = ephemeral;
//                      the bound port is published through `port_out`)
//   board()            handed to mpmini so every rank thread arms a pulse
//   end_run(crashes)   stop the listener, settle the monitor (guaranteeing a
//                      silent rank is classified before anyone reads health)
//                      and — if anything died — dump a flight-recorder bundle
//
// All HTTP handlers read through thread-safe paths only (registry snapshot,
// monitor health copies, snapshot-ring copies), so the listener needs no
// extra locking against the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/heartbeat.hpp"
#include "obs/http.hpp"
#include "obs/registry.hpp"
#include "obs/snapshots.hpp"
#include "obs/trace.hpp"

namespace mm::obs {

struct LiveConfig {
  bool enabled = false;

  // Heartbeats: publish cadence for idle ranks and the monitor thresholds
  // (multiples of the interval of silence before suspect/down).
  std::chrono::nanoseconds heartbeat_interval{std::chrono::milliseconds{100}};
  double suspect_after = 1.0;
  double dead_after = 1.5;

  // Periodic registry snapshots feeding live rates and the flight recorder.
  std::chrono::nanoseconds snapshot_period{std::chrono::milliseconds{250}};

  // HTTP exposition: port to bind on 127.0.0.1 (0 = ephemeral, negative = no
  // listener). The actually-bound port is stored to *port_out (if non-null)
  // once the listener is up — the mid-run hand-off for ephemeral ports.
  int http_port = -1;
  std::atomic<std::uint16_t>* port_out = nullptr;

  // Flight-recorder bundle parent directory.
  std::string flight_dir = "flight";
};

// What the run learned from the live plane, returned to callers.
struct LiveReport {
  bool enabled = false;
  std::vector<RankHealth> health;        // final per-rank liveness
  std::vector<std::string> rank_nodes;   // rank -> node name
  std::vector<CrashEntry> crashes;       // merged caller + heartbeat deaths
  std::string flight_bundle;             // bundle dir, empty if none written
  std::uint16_t http_port = 0;           // bound port, 0 if no listener
};

class LivePlane {
 public:
  LivePlane(LiveConfig config, Registry& registry, const TraceSink* trace);
  ~LivePlane();

  // Start monitoring `ranks` rank threads; `rank_names` maps rank -> dagflow
  // node name (used for /metrics labels and crash reports). Idempotent per
  // plane: a second call before end_run is ignored.
  void begin_run(int ranks, std::vector<std::string> rank_names);

  // Null until begin_run (or when disabled); mpmini arms one pulse per rank
  // thread against this board.
  HeartbeatBoard* board() { return board_.get(); }
  std::chrono::nanoseconds heartbeat_interval() const {
    return config_.heartbeat_interval;
  }

  // Tear down (listener first, then monitor settle) and merge
  // `caller_crashes` (deadline timeouts, node exceptions) with ranks the
  // heartbeat monitor declared down. Safe to call when begin_run never ran.
  LiveReport end_run(std::vector<CrashEntry> caller_crashes);

  // Full Prometheus page: registry + heartbeat health + windowed rates.
  std::string render_metrics() const;
  HttpResponse healthz() const;

  HeartbeatMonitor* monitor() { return monitor_.get(); }
  SnapshotScheduler* scheduler() { return scheduler_.get(); }
  std::uint16_t http_port() const { return server_ ? server_->port() : 0; }
  const LiveConfig& config() const { return config_; }

  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

 private:
  LiveConfig config_;
  Registry& registry_;
  const TraceSink* trace_ = nullptr;
  std::vector<std::string> rank_nodes_;
  bool active_ = false;

  std::unique_ptr<HeartbeatBoard> board_;
  std::unique_ptr<HeartbeatMonitor> monitor_;
  std::unique_ptr<SnapshotScheduler> scheduler_;
  std::unique_ptr<MetricsServer> server_;  // brought up last, torn down first
};

}  // namespace mm::obs
