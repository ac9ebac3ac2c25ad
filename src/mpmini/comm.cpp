#include "mpmini/comm.hpp"

#include <algorithm>
#include <thread>

#include "obs/heartbeat.hpp"

namespace mm::mpi {
namespace {

inline void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

// Subgroup ids carry the top bit; World::allocate_comm_id counts up from 1
// and never reaches it.
constexpr std::uint64_t kSubgroupBit = std::uint64_t{1} << 63;

}  // namespace

World::World(int size) : World(size, transport_mode()) {}

World::World(int size, TransportMode mode)
    : World(size, std::make_unique<InProcessTransport>(size, mode)) {}

World::World(int size, std::unique_ptr<Transport> transport)
    : size_(size), transport_(std::move(transport)) {
  MM_ASSERT_MSG(size > 0, "World size must be positive");
  MM_ASSERT(transport_ != nullptr);
  op_counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) op_counts_[static_cast<std::size_t>(i)] = 0;
}

void World::attach_obs(obs::Registry& registry) {
  metrics_.send_messages = &registry.counter("mpmini.send.messages");
  metrics_.send_bytes = &registry.counter("mpmini.send.bytes");
  metrics_.recv_messages = &registry.counter("mpmini.recv.messages");
  metrics_.recv_bytes = &registry.counter("mpmini.recv.bytes");
  metrics_.timeouts = &registry.counter("mpmini.deadline.timeouts");
  metrics_.faults_dropped = &registry.counter("mpmini.fault.dropped");
  metrics_.faults_duplicated = &registry.counter("mpmini.fault.duplicated");
  metrics_.faults_delayed = &registry.counter("mpmini.fault.delayed");
  obs::Gauge& queue_peak = registry.gauge("mpmini.mailbox.queue_peak");
  obs::Gauge& ring_peak = registry.gauge("mpmini.ring.depth_peak");
  // The gauges are high watermarks; a second run on the same registry must
  // start from zero, not inherit the previous world's peaks.
  queue_peak.reset();
  ring_peak.reset();
  transport_->attach_obs(&queue_peak, &ring_peak);
}

void World::check_op(int world_rank) {
  // Heartbeat publish site: every transport operation beats the calling rank
  // thread's pulse — one relaxed store when armed, one branch when not.
  obs::Pulse& pulse = obs::pulse_this_thread();
  pulse.beat();
  if (fault_plan_.kill_rank != world_rank) return;
  const auto op = ++op_counts_[static_cast<std::size_t>(world_rank)];
  if (op >= fault_plan_.kill_at_op) {
    // A killed rank goes SILENT: no more beats, and its heartbeat slot is
    // never retired — the monitor must detect the death from silence alone.
    pulse.mark_dead();
    throw RankKilled(world_rank);
  }
}

Comm::Comm(World* world, std::uint64_t comm_id, int rank, std::vector<int> members)
    : world_(world), comm_id_(comm_id), rank_(rank), members_(std::move(members)) {
  MM_ASSERT(world_ != nullptr);
  MM_ASSERT(rank_ >= 0 && rank_ < static_cast<int>(members_.size()));
}

void Comm::fault_point() { world_->check_op(members_[static_cast<std::size_t>(rank_)]); }

void Comm::send(int dest, int tag, std::vector<std::uint8_t> payload) {
  MM_ASSERT_MSG(tag >= 0, "send: tags must be non-negative");
  MM_ASSERT_MSG(dest >= 0 && dest < size(), "send: destination rank out of range");
  fault_point();
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.comm_id = comm_id_;
  msg.sequence = send_seq_++;
  msg.payload = std::move(payload);
  // Causal header: when this thread has a trace ring and a live context,
  // stamp the context's trace id and a fresh flow id into the envelope so
  // the matching receive can emit the other half of the flow arrow. Idle
  // cost (ring attached but context untraced, or no ring at all) is one
  // thread-local read and a branch.
  obs::ThreadTrace& thread_trace = obs::thread_trace();
  std::int64_t send_t0 = 0;
  std::uint32_t send_flow = 0;
  if (thread_trace.ring != nullptr && thread_trace.context.valid()) {
    msg.trace_id = thread_trace.context.trace_id;
    msg.flow = send_flow = obs::next_span_id();
    send_t0 = obs::now_ns();
  }
  const int dest_world = members_[static_cast<std::size_t>(dest)];
  const WorldObs& metrics = world_->metrics();
  bump(metrics.send_messages);
  bump(metrics.send_bytes, msg.payload.size());

  const int src_world = members_[static_cast<std::size_t>(rank_)];
  // Hot-path transmit, delegated to the world's transport: a lane-ring push
  // in ring mode (lock-free), the locked mailbox path otherwise, a serialized
  // envelope over the peer's TCP link in socket mode.
  const auto transmit = [&](Message&& m) {
    world_->transmit(src_world, dest_world, std::move(m));
  };

  const FaultPlan& plan = world_->fault_plan();
  if (plan.active()) {
    const FaultDecision decision = plan.decide(msg, dest_world);
    if (decision.drop) {
      bump(metrics.faults_dropped);
      return;
    }
    if (decision.delay.count() > 0) {
      bump(metrics.faults_delayed);
      // The injected latency is served on the sending thread BEFORE any ring
      // slot or mailbox lock is touched: a delayed message stalls its own
      // sender's stream (per-source FIFO demands that) but never unrelated
      // senders' traffic into the same rank.
      std::this_thread::sleep_for(decision.delay);
    }
    if (decision.duplicate) {
      bump(metrics.faults_duplicated);
      Message duplicate(msg);
      // The duplicate is a transport artifact, not a causal edge: strip its
      // trace header so the receiver doesn't emit a second flow finish (and
      // doesn't adopt a context) for the same logical send.
      duplicate.trace_id = 0;
      duplicate.flow = 0;
      transmit(std::move(duplicate));
    }
  }
  transmit(std::move(msg));
  // Span + flow start are emitted only for messages that actually went out:
  // a fault-plan drop returns above and orphans no spans.
  if (send_t0 != 0) {
    const std::int64_t dur = std::max<std::int64_t>(obs::now_ns() - send_t0, 1);
    thread_trace.ring->complete("send", send_t0, dur);
    // ts inside the send span so the viewer binds the arrow tail to it.
    thread_trace.ring->flow_start("msg", send_t0, send_flow);
  }
}

bool Comm::receive(std::chrono::nanoseconds timeout, int source, int tag,
                   RecvStatus* status, Message* msg) {
  fault_point();
  Mailbox& box = world_->mailbox(members_[static_cast<std::size_t>(rank_)]);
  obs::ThreadTrace& thread_trace = obs::thread_trace();
  const std::int64_t recv_t0 =
      thread_trace.ring != nullptr ? obs::now_ns() : 0;
  // Stack ticket inside the mailbox, zero allocation per receive. On timeout
  // the ticket is withdrawn, so a message arriving later stays available
  // for future receives instead of being swallowed by an abandoned ticket.
  if (!box.receive_for(comm_id_, source, tag, timeout, msg)) {
    bump(world_->metrics().timeouts);
    return false;
  }
  bump(world_->metrics().recv_messages);
  bump(world_->metrics().recv_bytes, msg->payload.size());
  if (status != nullptr) {
    status->source = msg->source;
    status->tag = msg->tag;
    status->byte_count = msg->payload.size();
    status->trace_id = msg->trace_id;
    status->flow = msg->flow;
  }
  if (recv_t0 != 0 && msg->trace_id != 0) {
    // The recv span covers the wait; the flow finish lands inside it and
    // closes the arrow the sender started.
    const std::int64_t dur = std::max<std::int64_t>(obs::now_ns() - recv_t0, 1);
    thread_trace.ring->complete("recv", recv_t0, dur);
    thread_trace.ring->flow_finish("msg", recv_t0, msg->flow);
  }
  return true;
}

std::vector<std::uint8_t> Comm::recv(int source, int tag, RecvStatus* status) {
  Message msg;
  // A receive without a deadline cannot time out.
  const bool received =
      receive(std::chrono::nanoseconds::max(), source, tag, status, &msg);
  MM_ASSERT(received);
  return std::move(msg.payload);
}

Expected<std::vector<std::uint8_t>> Comm::recv_for(std::chrono::milliseconds timeout,
                                                   int source, int tag,
                                                   RecvStatus* status) {
  Message msg;
  if (!receive(timeout, source, tag, status, &msg))
    return Error(Errc::timeout, "recv_for: no matching message within deadline");
  return std::move(msg.payload);
}

Comm Comm::subgroup(int index, int first, int count) const {
  MM_ASSERT_MSG(index >= 0, "subgroup: index must be non-negative");
  MM_ASSERT_MSG(first >= 0 && count >= 1 && first + count <= size(),
                "subgroup: rank range outside the communicator");
  MM_ASSERT_MSG(rank_ >= first && rank_ < first + count,
                "subgroup: calling rank outside the range");
  MM_ASSERT_MSG(comm_id_ < (std::uint64_t{1} << 31),
                "subgroup: parent must be an allocated communicator");
  const std::uint64_t id = kSubgroupBit | comm_id_ << 32 |
                           static_cast<std::uint32_t>(index);
  std::vector<int> members(members_.begin() + first, members_.begin() + first + count);
  return Comm(world_, id, rank_ - first, std::move(members));
}

}  // namespace mm::mpi
