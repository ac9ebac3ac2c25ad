// Prometheus text-exposition rendering for mm::obs (exposition format 0.0.4).
//
// Pure cold-path string formatting over Snapshot / RankHealth / RateSample —
// no sockets, no threads (the listener lives in obs/http.hpp, the wiring in
// obs/live.hpp).
//
// Mapping rules:
//   * metric names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* (every other
//     byte becomes '_', a leading digit gets a '_' prefix) and prefixed
//     (default "mm_");
//   * counters are suffixed "_total"; gauges map 1:1;
//   * histograms emit the native histogram family (cumulative "_bucket" with
//     an le label per bound plus le="+Inf", "_sum", "_count") AND a
//     "<name>_quantile" gauge family whose samples carry quantile labels —
//     the interpolated p50/p95/p99 from MetricValue::quantile;
//   * label values are escaped per the spec: backslash, double-quote and
//     newline become \\, \" and \n.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/snapshots.hpp"

namespace mm::obs {

// Sanitized Prometheus metric name (no prefixing; pure character rules).
std::string prom_name(const std::string& raw);

// Label-value escaping: \ -> \\, " -> \", newline -> \n.
std::string prom_label_escape(const std::string& value);

// Label-embedded metric names. Registry metrics are keyed by one flat string;
// labels ride inside it using the exposition's own syntax:
//
//   labeled("svc.jobs.submitted", {{"tenant", "alice"}})
//     -> `svc.jobs.submitted{tenant="alice"}`
//
// Each distinct label set is its own Counter/Gauge/Histogram (updates stay on
// the registry's lock-free hot path); prom_render splits the name back into
// family + label block and merges le/quantile labels for histograms, so the
// scrape shows one properly labeled family. Snapshot::find takes the full
// labeled string.
std::string labeled(const std::string& name,
                    std::initializer_list<std::pair<std::string, std::string>> labels);

// One full registry snapshot as text exposition. Every family gets HELP and
// TYPE lines; `prefix` is prepended to every (sanitized) name.
std::string prom_render(const Snapshot& snap, const std::string& prefix = "mm_");

// Heartbeat liveness as labeled gauge families: mm_heartbeat_up (1 while the
// rank is believed alive, 0 once down or done), mm_heartbeat_state (0 up,
// 1 suspect, 2 down, 3 done), mm_heartbeat_seq, mm_heartbeat_age_seconds
// (now - last_seen) and mm_heartbeat_missed_scans, each labeled
// {rank="..",node=".."}. `rank_nodes` maps world rank to its dagflow node
// name (shorter vectors leave the node label empty).
std::string prom_render_health(const std::vector<RankHealth>& health,
                               const std::vector<std::string>& rank_nodes,
                               std::int64_t now_ns,
                               const std::string& prefix = "mm_");

// Live rates from the snapshot scheduler as gauges (mm_rate_messages_per_
// second, mm_rate_frames_per_second, mm_rate_step_latency_ns{quantile=..},
// mm_snapshot_age_seconds).
std::string prom_render_rates(const RateSample& rates, std::int64_t now_ns,
                              const std::string& prefix = "mm_");

}  // namespace mm::obs
