#include "dagflow/graph.hpp"

#include <mutex>
#include <optional>
#include <set>

#include "common/strings.hpp"
#include "dagflow/context.hpp"
#include "mpmini/environment.hpp"

namespace mm::dag {

int Graph::add_node(std::string name, NodeFn fn) {
  MM_ASSERT_MSG(fn != nullptr, "node function must not be null");
  Node node;
  node.name = std::move(name);
  node.fn = std::move(fn);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int Graph::add_group_node(std::string name, GroupNodeFn fn, int replicas) {
  MM_ASSERT_MSG(fn != nullptr, "node function must not be null");
  MM_ASSERT_MSG(replicas >= 1, "group node needs at least one replica");
  Node node;
  node.name = std::move(name);
  node.group_fn = std::move(fn);
  node.replicas = replicas;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int Graph::rank_count() const {
  int total = 0;
  for (const auto& node : nodes_) total += node.replicas;
  return total;
}

void Graph::connect(int from_node, int from_port, int to_node, int to_port,
                    int capacity) {
  edges_.push_back({from_node, from_port, to_node, to_port, capacity});
}

const std::string& Graph::node_name(int node) const {
  MM_ASSERT(node >= 0 && node < static_cast<int>(nodes_.size()));
  return nodes_[static_cast<std::size_t>(node)].name;
}

Status Graph::validate() const {
  const int n = static_cast<int>(nodes_.size());
  if (n == 0) return Error(Errc::invalid_argument, "graph has no nodes");

  std::set<std::pair<int, int>> seen_inputs, seen_outputs;
  for (const auto& e : edges_) {
    if (e.from_node < 0 || e.from_node >= n || e.to_node < 0 || e.to_node >= n)
      return Error(Errc::invalid_argument, "edge endpoint out of range");
    if (e.from_node == e.to_node)
      return Error(Errc::invalid_argument,
                   "self-loop on node " + nodes_[static_cast<std::size_t>(e.from_node)].name);
    if (e.capacity <= 0) return Error(Errc::invalid_argument, "edge capacity must be positive");
    if (!seen_inputs.insert({e.to_node, e.to_port}).second)
      return Error(Errc::invalid_argument,
                   format("duplicate input port %d on node %s", e.to_port,
                          nodes_[static_cast<std::size_t>(e.to_node)].name.c_str()));
    if (!seen_outputs.insert({e.from_node, e.from_port}).second)
      return Error(Errc::invalid_argument,
                   format("duplicate output port %d on node %s", e.from_port,
                          nodes_[static_cast<std::size_t>(e.from_node)].name.c_str()));
  }

  // Kahn's algorithm for acyclicity.
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const auto& e : edges_) ++indegree[static_cast<std::size_t>(e.to_node)];
  std::vector<int> queue;
  for (int i = 0; i < n; ++i)
    if (indegree[static_cast<std::size_t>(i)] == 0) queue.push_back(i);
  int visited = 0;
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    ++visited;
    for (const auto& e : edges_) {
      if (e.from_node != u) continue;
      if (--indegree[static_cast<std::size_t>(e.to_node)] == 0)
        queue.push_back(e.to_node);
    }
  }
  if (visited != n) return Error(Errc::invalid_argument, "graph contains a cycle");
  return {};
}

std::string Graph::to_dot() const {
  std::string out = "digraph dagflow {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    out += format("  n%zu [label=\"%s\"];\n", i, nodes_[i].name.c_str());
  for (const auto& e : edges_) {
    out += format("  n%d -> n%d [label=\"%d->%d cap=%d\"];\n", e.from_node, e.to_node,
                  e.from_port, e.to_port, e.capacity);
  }
  out += "}\n";
  return out;
}

RunResult Graph::run(const RunOptions& options) {
  if (auto st = validate(); !st)
    throw std::runtime_error("dagflow: invalid graph: " + st.error().message);

  // Rank layout: each node occupies a contiguous block of `replicas` ranks;
  // the first rank of the block is the node's leader and owns its edges.
  std::vector<int> node_of_rank;
  std::vector<int> leader_rank(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    leader_rank[i] = static_cast<int>(node_of_rank.size());
    for (int r = 0; r < nodes_[i].replicas; ++r)
      node_of_rank.push_back(static_cast<int>(i));
  }

  RunResult result;
  result.nodes.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) result.nodes[i].name = nodes_[i].name;
  std::mutex status_mutex;

  const auto rank_main = [&](mpi::Comm& comm) {
    const int node = node_of_rank[static_cast<std::size_t>(comm.rank())];
    const Node& spec = nodes_[static_cast<std::size_t>(node)];
    NodeStatus local;           // this rank's observations only
    std::optional<Context> ctx; // leaders only

    // Telemetry: this rank's trace ring (pid = rank, tid = node, thread
    // row named after the node) and the node's wall-time histogram.
    obs::TraceRing* ring = nullptr;
    if (options.trace != nullptr) {
      ring = &options.trace->ring(comm.rank(),
                                  format("rank %d", comm.rank()));
      ring->set_tid(node);
      options.trace->set_thread_name(comm.rank(), node, spec.name);
    }
    obs::Histogram* wall =
        options.metrics != nullptr
            ? &options.metrics->histogram("dag." + spec.name + ".wall_ns")
            : nullptr;
    // Causal propagation: this rank thread writes spans to its own ring,
    // and starts from the caller's root context (source nodes send with
    // it; consuming a frame re-points the context at that frame's).
    obs::TraceRingScope ring_scope(ring);
    obs::TraceContextScope context_scope(options.trace_context);

    try {
      const int first = leader_rank[static_cast<std::size_t>(node)];
      const bool leader = comm.rank() == first;
      if (leader)
        ctx.emplace(comm, node, spec.name, edges_, leader_rank,
                    options.pump_timeout, options.metrics, ring);
      obs::ObsSpan span(ring, "run", wall);
      if (spec.fn) {
        MM_ASSERT(leader);  // single-rank nodes have exactly one member
        spec.fn(*ctx);
      } else {
        // The node's private communicator over its rank block, built
        // locally: every member derives the same one with no message.
        mpi::Comm group = comm.subgroup(node, first, spec.replicas);
        spec.group_fn(leader ? &*ctx : nullptr, group);
      }
    } catch (const std::exception& e) {
      local.failed = true;
      local.error = e.what();
    } catch (...) {
      local.failed = true;
      local.error = "unknown exception";
    }

    if (ctx) {
      // Teardown runs even for a failed node: poison (or close) whatever
      // the function left open, then drain remaining input so upstream
      // emitters blocked on credits can always finish. Guarded, because a
      // fault-plan kill makes every transport op throw — downstream then
      // discovers the silence via its pump deadline instead.
      try {
        obs::ObsSpan span(ring, "drain");
        if (local.failed)
          ctx->fail_all_outputs();
        else
          ctx->close_all_outputs();
        while (ctx->recv()) {
        }
      } catch (...) {
      }
      local.upstream_failed = ctx->upstream_failed();
      local.timed_out = ctx->timed_out();
    }

    std::lock_guard<std::mutex> lock(status_mutex);
    NodeStatus& status = result.nodes[static_cast<std::size_t>(node)];
    if (local.failed && !status.failed) {
      status.failed = true;
      status.error = local.error;
    }
    status.upstream_failed = status.upstream_failed || local.upstream_failed;
    status.timed_out = status.timed_out || local.timed_out;
  };

  if (options.rendezvous != nullptr) {
    // One process per rank: run only the local rank here; peer processes run
    // the same graph with their own rendezvous rank.
    mpi::Environment::run_rendezvous(*options.rendezvous, rank_count(), rank_main,
                                     options.fault, options.metrics,
                                     options.heartbeat, options.heartbeat_interval);
  } else {
    mpi::Environment::run(rank_count(), rank_main, options.fault, options.metrics,
                          options.heartbeat, options.heartbeat_interval);
  }

  return result;
}

std::vector<std::string> Graph::rank_node_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(rank_count()));
  for (const auto& node : nodes_) {
    for (int r = 0; r < node.replicas; ++r)
      names.push_back(r == 0 ? node.name : format("%s#%d", node.name.c_str(), r));
  }
  return names;
}

}  // namespace mm::dag
