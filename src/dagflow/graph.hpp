// dagflow: directed-acyclic-graph stream processing over mpmini.
//
// MarketMiner "has since been extended to support arbitrary directed acyclic
// graph (DAG) stream processing workflows" (§II). dagflow is that layer:
//
//   * a Graph of named nodes (components), each a user function run on its
//     own rank, connected by directed edges between numbered ports;
//   * validation — edges well-formed, graph acyclic;
//   * execution — one mpmini rank per node, edges carried as tagged messages;
//   * bounded channels — every edge has a capacity and uses credit-based flow
//     control, so a slow stage exerts backpressure instead of letting queues
//     grow without bound (critical when the correlation stage is slower than
//     a live feed);
//   * end-of-stream propagation — a node's outputs are closed automatically
//     when its function returns; Context::recv() drains inputs until all
//     upstream nodes have closed;
//   * failure containment — an exception escaping a node function is caught
//     by the run harness, the node's outputs are closed with a NodeFailure
//     marker (poisoning the downstream lineage), its inputs are drained, and
//     run() reports a per-node status instead of tearing down the process.
//     Nodes that consume a poisoned input to end-of-stream re-propagate the
//     marker when their own outputs close, so sinks can tell a degraded
//     stream from a healthy one.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mpmini/comm.hpp"
#include "mpmini/fault.hpp"

namespace mm::mpi {
struct Rendezvous;  // socket_transport.hpp; used by pointer only
}  // namespace mm::mpi
#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mm::dag {

class Context;

using NodeFn = std::function<void(Context&)>;

// A node backed by a GROUP of ranks (Fig. 1's "Parallel Correlation Engine"
// is such a box). The group's rank 0 (the leader) owns the node's edges and
// receives a Context; every member (leader included) receives the group's
// private communicator (Comm::subgroup over the node's rank block, built
// without a message) for its internal protocol. Non-leaders get ctx ==
// nullptr.
using GroupNodeFn = std::function<void(Context* ctx, mpi::Comm& group)>;

struct Edge {
  int from_node = -1;
  int from_port = 0;
  int to_node = -1;
  int to_port = 0;
  int capacity = 64;  // in-flight messages before the sender blocks
};

// Outcome of one node after run(): did its own function fail, and did its
// input lineage include a failure (marker or transport timeout)?
struct NodeStatus {
  std::string name;
  bool failed = false;           // the node function threw (incl. RankKilled)
  bool upstream_failed = false;  // an input closed with a failure marker
  bool timed_out = false;        // a pump deadline expired on this node
  std::string error;             // what() of the node's own exception

  bool ok() const { return !failed && !upstream_failed && !timed_out; }
};

struct RunResult {
  std::vector<NodeStatus> nodes;  // indexed by node id

  bool ok() const {
    for (const auto& n : nodes)
      if (!n.ok()) return false;
    return true;
  }
};

struct RunOptions {
  // Fault plan installed on the mpmini world (tests and chaos drills).
  mpi::FaultPlan fault{};
  // Bound on every transport wait inside a node (0 = wait forever). Required
  // for bounded-time completion when ranks can die without a dying breath:
  // a node whose upstream goes silent past the deadline treats the stream as
  // failed instead of hanging.
  std::chrono::milliseconds pump_timeout{0};

  // --- telemetry (both optional; must outlive the run) --------------------
  // Registry for runtime metrics: the mpmini world's transport counters plus
  // per-node dag.<name>.frames_in / frames_out / credit_stall_ns counters and
  // a dag.<name>.wall_ns histogram of node-function wall time.
  obs::Registry* metrics = nullptr;
  // Trace sink: one ring ("process") per rank, one named thread row per
  // node; node run / teardown spans and emit-stall spans are recorded and
  // can be drained to chrome://tracing JSON after run() returns.
  obs::TraceSink* trace = nullptr;
  // Heartbeat board from the caller's monitoring plane (size >= rank_count()).
  // Every rank thread publishes beats against it while the caller's
  // HeartbeatMonitor watches for silence; see obs/heartbeat.hpp.
  obs::HeartbeatBoard* heartbeat = nullptr;
  std::chrono::nanoseconds heartbeat_interval{std::chrono::milliseconds{100}};
  // Root causal context installed on every rank thread for the run: source
  // nodes (no inputs) send with it, so the whole run stitches into one trace.
  // Nodes with inputs re-adopt the context of each frame they consume.
  // Invalid (the default) means sends are untraced until a frame says
  // otherwise.
  obs::TraceContext trace_context{};

  // Multi-process mode: when set, this process runs ONLY rendezvous->rank of
  // the graph's rank space, meeting the other rank processes over the TCP
  // socket transport (Environment::run_rendezvous). Every process must run
  // the same graph. The RunResult reports node statuses observed by LOCAL
  // ranks only; remote nodes appear as never-started. Must outlive run().
  const mpi::Rendezvous* rendezvous = nullptr;
};

class Graph {
 public:
  // Returns the node id. Nodes execute fn on their own rank when run() is
  // called.
  int add_node(std::string name, NodeFn fn);

  // A node backed by `replicas` ranks; see GroupNodeFn.
  int add_group_node(std::string name, GroupNodeFn fn, int replicas);

  // Connect from_node's output port to to_node's input port. Ports are
  // small integers chosen by the caller; a node may have several inputs and
  // outputs. capacity bounds in-flight messages on this edge.
  void connect(int from_node, int from_port, int to_node, int to_port,
               int capacity = 64);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(int node) const;
  const std::vector<Edge>& edges() const { return edges_; }

  // Well-formed endpoints, positive capacities, no duplicate input port on a
  // node, acyclic.
  Status validate() const;

  // Execute: spawns one rank per node and blocks until every node function
  // has returned and all streams have drained. Node exceptions are contained
  // (see header comment) and reported in the result; only an invalid graph
  // throws.
  RunResult run(const RunOptions& options = {});

  // Graphviz rendering of the topology (node names, port labels, capacities)
  // for documentation and debugging.
  std::string to_dot() const;

  // Total ranks required (sum of replica counts).
  int rank_count() const;

  // World rank -> node name under run()'s layout (contiguous replica blocks,
  // in add order); replicas beyond the leader are suffixed "#<index>". Lets
  // monitoring label per-rank data with the component it runs.
  std::vector<std::string> rank_node_names() const;

 private:
  struct Node {
    std::string name;
    NodeFn fn;               // exactly one of fn / group_fn is set
    GroupNodeFn group_fn;
    int replicas = 1;
  };
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace mm::dag
