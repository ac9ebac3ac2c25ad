// Per-node execution context: the API a dagflow component programs against.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "mpmini/comm.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mm::dag {

struct Edge;

// A message received on one of the node's input ports.
struct InMessage {
  int port = 0;
  std::vector<std::uint8_t> bytes;
  // Causal context the frame arrived with (invalid when untraced). recv()
  // installs it as the consuming thread's current context, so node code —
  // and every send it makes — inherits the causality of the frame that woke
  // it.
  obs::TraceContext trace{};
};

class Context {
 public:
  // Built by Graph::run; user code only consumes it. `leader_ranks` maps a
  // node id to the world rank that owns its edges (identity when every node
  // is single-rank; group nodes put their leader there). `pump_timeout`
  // bounds every wait on the transport: zero means wait forever; a positive
  // value turns a silent transport into a fault (timed-out inputs are
  // treated as failed, a timed-out output is abandoned) instead of a hang.
  // `metrics` and `ring` are optional telemetry hooks (see RunOptions): with
  // a registry the context maintains dag.<name>.frames_in / frames_out /
  // credit_stall_ns; with a ring it records emit-stall spans and timeout
  // instants.
  Context(mpi::Comm& comm, int node, std::string name, const std::vector<Edge>& edges,
          const std::vector<int>& leader_ranks,
          std::chrono::milliseconds pump_timeout = std::chrono::milliseconds{0},
          obs::Registry* metrics = nullptr, obs::TraceRing* ring = nullptr);

  const std::string& name() const { return name_; }
  int node() const { return node_; }
  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }

  // Next message from any input port, in arrival order. Returns nullopt once
  // every input has reached end-of-stream — normally, via a failure marker,
  // or via a pump timeout. A flow-control credit returns to the sender as
  // soon as the frame is buffered here (see pump), at roughly this node's
  // consumption rate.
  std::optional<InMessage> recv();

  // Send on an output port. Blocks while the edge is at capacity (credit
  // exhausted), servicing incoming data/credits meanwhile. With a pump
  // timeout configured, an edge whose consumer returns no credit within the
  // deadline is marked dead and the message (and all later ones) dropped.
  void emit(int port, std::vector<std::uint8_t> bytes);

  // Close one output port early (EOS). Idempotent. All still-open outputs
  // are closed automatically when the node function returns.
  void close_output(int port);
  void close_all_outputs();

  // Close every open output with a NodeFailure marker instead of EOS: the
  // downstream node sees the port closed AND the lineage poisoned. Called by
  // the run harness when the node function throws; close_all_outputs also
  // degrades to this when the node consumed a poisoned input, so failure
  // markers propagate transitively to the sinks.
  void fail_all_outputs();

  // True once any input carried a failure marker or timed out.
  bool upstream_failed() const { return upstream_failed_; }
  // Input ports that closed via failure marker or timeout, ascending.
  std::vector<int> failed_input_ports() const;
  // True if any pump deadline expired (inputs silenced or an output wedged).
  bool timed_out() const { return timed_out_; }

  // Totals for throughput reporting.
  std::uint64_t messages_in() const { return messages_in_; }
  std::uint64_t messages_out() const { return messages_out_; }

  // Telemetry hooks for component code (either may be null).
  obs::Registry* metrics() const { return metrics_; }
  obs::TraceRing* ring() const { return ring_; }

 private:
  struct InputEdge {
    int edge_id;
    int peer_node;  // rank of the producer
    int port;
    bool open = true;
    bool failed = false;  // closed by failure marker or timeout
  };
  struct OutputEdge {
    int edge_id;
    int peer_node;  // rank of the consumer
    int port;
    int credits;
    bool open = true;
  };

  // Block for one incoming transport message and dispatch it (data -> queue,
  // EOS/failure -> mark closed, credit -> top up). Returns false if
  // `deadline` passed with nothing processed (only possible when a pump
  // timeout is configured).
  bool pump(std::chrono::steady_clock::time_point deadline);
  bool all_inputs_closed() const;
  void close_outputs_with(std::uint8_t kind);

  static int data_tag(int edge_id) { return 2 * edge_id; }
  static int credit_tag(int edge_id) { return 2 * edge_id + 1; }

  mpi::Comm& comm_;
  int node_;
  std::string name_;
  std::chrono::milliseconds pump_timeout_{0};
  obs::Registry* metrics_ = nullptr;
  obs::TraceRing* ring_ = nullptr;
  obs::Counter* frames_in_ = nullptr;        // dag.<name>.frames_in
  obs::Counter* frames_out_ = nullptr;       // dag.<name>.frames_out
  obs::Counter* credit_stall_ns_ = nullptr;  // dag.<name>.credit_stall_ns
  std::vector<InputEdge> inputs_;
  std::vector<OutputEdge> outputs_;
  std::deque<InMessage> ready_;  // data already pumped but not yet recv()ed
  bool upstream_failed_ = false;
  bool timed_out_ = false;
  std::uint64_t messages_in_ = 0;
  std::uint64_t messages_out_ = 0;
};

}  // namespace mm::dag
