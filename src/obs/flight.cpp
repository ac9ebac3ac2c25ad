#include "obs/flight.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/prometheus.hpp"

namespace mm::obs {
namespace {

// Snapshot frames a bundle keeps: the newest, the minutes before the failure.
constexpr std::size_t kBundleFrames = 8;

Status write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    return Error{Errc::io_error, "cannot open " + path + " for writing"};
  const std::size_t written =
      text.empty() ? 0 : std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size())
    return Error{Errc::io_error, "short write to " + path};
  return {};
}

std::string rank_json(std::size_t rank, const RankHealth& h,
                      const std::vector<std::string>& rank_nodes) {
  const std::string node =
      rank < rank_nodes.size() ? rank_nodes[rank] : std::string{};
  return format(
      "{\"rank\":%zu,\"node\":\"%s\",\"state\":\"%s\",\"seq\":%llu,"
      "\"last_seen_ns\":%lld,\"detected_ns\":%lld,\"missed_scans\":%u}",
      rank, json_escape(node).c_str(), liveness_name(h.state),
      static_cast<unsigned long long>(h.seq),
      static_cast<long long>(h.last_seen_ns),
      static_cast<long long>(h.detected_ns), h.missed_scans);
}

}  // namespace

// Kept as the public name the bundle emitters use; the implementation is the
// tree-wide shared escaper in mm::json.
std::string json_escape(const std::string& text) {
  return json::escape(text);
}

Expected<std::string> FlightRecorder::dump(
    const std::vector<CrashEntry>& crashes,
    const std::vector<RankHealth>& health,
    const std::vector<std::string>& rank_nodes, const TraceSink* trace,
    const std::vector<SnapshotFrame>& frames, const Snapshot& metrics) const {
  namespace fs = std::filesystem;

  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  // Millisecond stamp plus a process-wide sequence keeps back-to-back dumps
  // (tests, rapid restarts) from landing in the same directory.
  static std::atomic<int> dump_seq{0};
  const std::string parent = config_.dir.empty() ? std::string{"flight"} : config_.dir;
  const std::string bundle =
      parent + "/" + format("postmortem-%lld-%d", static_cast<long long>(wall_ms),
                            dump_seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  fs::create_directories(bundle, ec);
  if (ec)
    return Error{Errc::io_error, "create " + bundle + ": " + ec.message()};

  std::string report = "{\n";
  report += format("  \"generated_unix_ms\": %lld,\n",
                   static_cast<long long>(wall_ms));
  report += format("  \"dead_ranks\": %zu,\n", crashes.size());
  report += "  \"crashes\": [";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const CrashEntry& c = crashes[i];
    if (i > 0) report += ",";
    report += format(
        "\n    {\"rank\":%d,\"node\":\"%s\",\"reason\":\"%s\","
        "\"error\":\"%s\",\"state\":\"%s\",\"seq\":%llu,"
        "\"last_seen_ns\":%lld,\"detected_ns\":%lld}",
        c.rank, json_escape(c.node).c_str(), json_escape(c.reason).c_str(),
        json_escape(c.error).c_str(), liveness_name(c.health.state),
        static_cast<unsigned long long>(c.health.seq),
        static_cast<long long>(c.health.last_seen_ns),
        static_cast<long long>(c.health.detected_ns));
  }
  report += crashes.empty() ? "],\n" : "\n  ],\n";
  report += "  \"ranks\": [";
  for (std::size_t r = 0; r < health.size(); ++r) {
    if (r > 0) report += ",";
    report += "\n    " + rank_json(r, health[r], rank_nodes);
  }
  report += health.empty() ? "]\n" : "\n  ]\n";
  report += "}\n";
  if (Status s = write_text(bundle + "/crash_report.json", report); !s) return s.error();

  const std::string trace_json =
      trace != nullptr ? trace->chrome_json() : std::string{"{\"traceEvents\":[]}"};
  if (Status s = write_text(bundle + "/trace.json", trace_json); !s) return s.error();

  const std::size_t skip =
      frames.size() > kBundleFrames ? frames.size() - kBundleFrames : 0;
  std::string snaps = "{\"frames\":[";
  bool first = true;
  for (std::size_t i = skip; i < frames.size(); ++i) {
    if (!first) snaps += ",";
    first = false;
    snaps += format("\n{\"t_ns\":%lld,\"snapshot\":",
                    static_cast<long long>(frames[i].t_ns));
    snaps += frames[i].snap.to_json();
    snaps += "}";
  }
  snaps += "\n]}\n";
  if (Status s = write_text(bundle + "/snapshots.json", snaps); !s) return s.error();

  if (Status s = write_text(bundle + "/metrics.prom", prom_render(metrics)); !s)
    return s.error();

  return bundle;
}

}  // namespace mm::obs
