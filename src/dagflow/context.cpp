#include "dagflow/context.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dagflow/graph.hpp"

namespace mm::dag {
namespace {

constexpr std::uint8_t kind_data = 0;
constexpr std::uint8_t kind_eos = 1;
constexpr std::uint8_t kind_fail = 2;  // NodeFailure marker: EOS + poisoned lineage

}  // namespace

Context::Context(mpi::Comm& comm, int node, std::string name,
                 const std::vector<Edge>& edges, const std::vector<int>& leader_ranks,
                 std::chrono::milliseconds pump_timeout, obs::Registry* metrics,
                 obs::TraceRing* ring)
    : comm_(comm),
      node_(node),
      name_(std::move(name)),
      pump_timeout_(pump_timeout),
      metrics_(metrics),
      ring_(ring) {
  if (metrics_ != nullptr) {
    frames_in_ = &metrics_->counter("dag." + name_ + ".frames_in");
    frames_out_ = &metrics_->counter("dag." + name_ + ".frames_out");
    credit_stall_ns_ = &metrics_->counter("dag." + name_ + ".credit_stall_ns");
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    if (edge.to_node == node) {
      inputs_.push_back({static_cast<int>(e),
                         leader_ranks[static_cast<std::size_t>(edge.from_node)],
                         edge.to_port, true, false});
    }
    if (edge.from_node == node) {
      outputs_.push_back({static_cast<int>(e),
                          leader_ranks[static_cast<std::size_t>(edge.to_node)],
                          edge.from_port, edge.capacity, true});
    }
  }
}

bool Context::all_inputs_closed() const {
  for (const auto& in : inputs_)
    if (in.open) return false;
  return true;
}

std::vector<int> Context::failed_input_ports() const {
  std::vector<int> ports;
  for (const auto& in : inputs_)
    if (in.failed) ports.push_back(in.port);
  std::sort(ports.begin(), ports.end());
  return ports;
}

bool Context::pump(std::chrono::steady_clock::time_point deadline) {
  std::vector<std::uint8_t> payload;
  mpi::RecvStatus status;
  if (pump_timeout_.count() > 0) {
    const auto now = std::chrono::steady_clock::now();
    const auto budget =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    auto result = comm_.recv_for(std::max(budget, std::chrono::milliseconds{1}),
                                 mpi::any_source, mpi::any_tag, &status);
    if (!result) {
      timed_out_ = true;
      return false;
    }
    payload = std::move(*result);
  } else {
    payload = comm_.recv(mpi::any_source, mpi::any_tag, &status);
  }

  // Credit for one of my output edges?
  for (auto& out : outputs_) {
    if (credit_tag(out.edge_id) == status.tag && out.peer_node == status.source) {
      ++out.credits;
      return true;
    }
  }

  // Data, EOS or failure marker on one of my input edges.
  for (auto& in : inputs_) {
    if (data_tag(in.edge_id) == status.tag && in.peer_node == status.source) {
      MM_ASSERT_MSG(!payload.empty(), "dagflow: empty transport frame");
      const std::uint8_t kind = payload.front();
      if (kind == kind_eos || kind == kind_fail) {
        in.open = false;
        if (kind == kind_fail) {
          in.failed = true;
          upstream_failed_ = true;
        }
        return true;
      }
      MM_ASSERT_MSG(kind == kind_data, "dagflow: unknown frame kind");
      payload.erase(payload.begin());
      InMessage frame{in.port, std::move(payload)};
      // Buffer the frame's causal context alongside its bytes: the frame may
      // sit in ready_ behind others, and the context must be installed when
      // the node consumes it, not when the transport happened to deliver it.
      frame.trace = obs::make_trace_context(status.trace_id, status.flow);
      ready_.push_back(std::move(frame));
      // Credit the producer as soon as the frame is buffered, not when the
      // node consumes it. Any ALIVE node keeps pumping — recv() pumps, and a
      // blocked emit() pumps while it waits — so producers starve of credits
      // only when the consumer rank is truly dead. Crediting on consumption
      // instead would let one dead edge cascade: a node stalled in emit()
      // against it would stop crediting its own producers, and their emit
      // deadlines would fire against a perfectly alive consumer. Steady-state
      // backpressure is preserved because a busy node pumps roughly once per
      // recv(), so credits still flow at its consumption rate.
      comm_.send(in.peer_node, credit_tag(in.edge_id), {});
      return true;
    }
  }
  MM_ASSERT_MSG(false, "dagflow: message for an unknown edge");
  return false;
}

std::optional<InMessage> Context::recv() {
  while (ready_.empty() && !all_inputs_closed()) {
    // Progress-based deadline: each processed message buys a fresh window.
    // The window is twice the emit deadline because an ALIVE upstream can
    // legitimately go silent for one full emit deadline while it waits out a
    // dead sibling edge of its own; declaring it dead on the same clock
    // would cascade one stage's fault across its healthy peers.
    if (!pump(std::chrono::steady_clock::now() + 2 * pump_timeout_)) {
      // Transport silent: whoever still owes us a stream is presumed dead.
      if (ring_ != nullptr) ring_->instant("recv-timeout");
      for (auto& in : inputs_) {
        if (in.open) {
          in.open = false;
          in.failed = true;
          upstream_failed_ = true;
        }
      }
      break;
    }
  }
  if (ready_.empty()) return std::nullopt;

  InMessage msg = std::move(ready_.front());
  ready_.pop_front();
  if (frames_in_ != nullptr) frames_in_->add(1);
  // Node code inherits the causality of the frame that woke it: from here
  // until the next recv(), every send this thread makes carries this frame's
  // trace id. Installed unconditionally so an untraced frame cannot ride a
  // stale context from its predecessor.
  obs::set_trace_context(msg.trace);
  return msg;
}

void Context::emit(int port, std::vector<std::uint8_t> bytes) {
  OutputEdge* target = nullptr;
  for (auto& out : outputs_)
    if (out.port == port) target = &out;
  MM_ASSERT_MSG(target != nullptr, "emit on an unconnected output port");
  if (!target->open) return;  // consumer declared dead earlier: drop

  // Backpressure: service the transport until a credit frees capacity. The
  // deadline is absolute across the whole wait — a consumer that returns no
  // credit within it is dead, and this edge degrades to a message sink.
  if (target->credits == 0) {
    // Credit stall: the consumer is the bottleneck. Timed only on this slow
    // path so the uncontended emit never reads the clock.
    obs::ObsSpan span(ring_, "credit-stall");
    const std::int64_t stall_start = credit_stall_ns_ != nullptr ? obs::now_ns() : 0;
    const auto deadline = std::chrono::steady_clock::now() + pump_timeout_;
    while (target->credits == 0) {
      if (!pump(deadline)) {
        if (ring_ != nullptr) ring_->instant("emit-timeout");
        target->open = false;
        if (credit_stall_ns_ != nullptr)
          credit_stall_ns_->add(static_cast<std::uint64_t>(obs::now_ns() - stall_start));
        return;  // drop the message: nobody is consuming this edge
      }
    }
    if (credit_stall_ns_ != nullptr)
      credit_stall_ns_->add(static_cast<std::uint64_t>(obs::now_ns() - stall_start));
  }

  bytes.insert(bytes.begin(), kind_data);
  comm_.send(target->peer_node, data_tag(target->edge_id), std::move(bytes));
  --target->credits;
  if (frames_out_ != nullptr) frames_out_->add(1);
}

void Context::close_output(int port) {
  for (auto& out : outputs_) {
    if (out.port == port && out.open) {
      // EOS bypasses flow control: it is a zero-payload frame and the only
      // message allowed to exceed capacity by one.
      comm_.send(out.peer_node, data_tag(out.edge_id),
                 {upstream_failed_ ? kind_fail : kind_eos});
      out.open = false;
    }
  }
}

void Context::close_outputs_with(std::uint8_t kind) {
  for (auto& out : outputs_) {
    if (out.open) {
      comm_.send(out.peer_node, data_tag(out.edge_id), {kind});
      out.open = false;
    }
  }
}

void Context::close_all_outputs() {
  // A clean close from a poisoned lineage still propagates the failure
  // marker, so sinks can tell a degraded stream from a healthy one.
  close_outputs_with(upstream_failed_ ? kind_fail : kind_eos);
}

void Context::fail_all_outputs() { close_outputs_with(kind_fail); }

}  // namespace mm::dag
