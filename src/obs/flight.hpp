// Flight recorder — postmortem bundles for failed runs.
//
// When a run ends with dead ranks (fault-plan kill, stage deadline, node
// exception, heartbeat silence) the engine hands everything the monitoring
// plane accumulated to FlightRecorder::dump(), which writes one
// self-contained bundle directory:
//
//   crash_report.json   what died, why, and every rank's final liveness
//   trace.json          the Chrome/Perfetto trace — all rank rings, the dead
//                       rank's last recorded spans included
//   snapshots.json      the last K registry snapshot frames (the short-term
//                       memory that shows the minutes BEFORE the failure)
//   metrics.prom        final registry state in Prometheus exposition text
//
// dump() runs strictly after the rank threads have joined: trace rings are
// single-writer and unsynchronized by design, so reading them mid-run would
// race. The monitor's detection timestamps are captured live; the bundle is
// written cold.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/snapshots.hpp"
#include "obs/trace.hpp"

namespace mm::obs {

// One dead rank's obituary.
struct CrashEntry {
  int rank = -1;
  std::string node;    // dagflow node name on that rank (may be empty)
  std::string reason;  // "heartbeat" | "deadline" | "exception" | "fault"
  std::string error;   // human-readable detail (exception text etc.)
  RankHealth health;   // monitor's view at detection time
};

class FlightRecorder {
 public:
  struct Config {
    std::string dir = "flight";  // parent for bundle directories
  };

  explicit FlightRecorder(Config config) : config_(std::move(config)) {}

  // Write one bundle under config.dir; returns the bundle directory path.
  // `rank_nodes` maps world rank to node name for the report; `frames` are
  // oldest -> newest (only the newest 8 are written).
  Expected<std::string> dump(const std::vector<CrashEntry>& crashes,
                             const std::vector<RankHealth>& health,
                             const std::vector<std::string>& rank_nodes,
                             const TraceSink* trace,
                             const std::vector<SnapshotFrame>& frames,
                             const Snapshot& metrics) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

// JSON string-body escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

}  // namespace mm::obs
