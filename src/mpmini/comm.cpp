#include "mpmini/comm.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "mpmini/serde.hpp"
#include "obs/heartbeat.hpp"

namespace mm::mpi {
namespace {

inline void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

}  // namespace

World::World(int size)
    // When the env picks the socket transport, a bare in-process World still
    // needs working local delivery (Environment builds the socket world
    // explicitly); fall back to rings for everything the env didn't route.
    : World(size, transport_mode() == TransportMode::socket ? TransportMode::ring
                                                            : transport_mode()) {}

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

int Comm::next_collective_tag() {
  // 2^22 in-flight collective generations per communicator before wraparound;
  // messages from generation g can never coexist with generation g + 2^22.
  return reserved_tag_base + static_cast<int>(collective_seq_++ % (1u << 22));
}

void Comm::fault_point() { world_->check_op(members_[static_cast<std::size_t>(rank_)]); }

void Comm::internal_send(int dest, int tag, std::vector<std::uint8_t> payload) {
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

void Comm::send(int dest, int tag, std::vector<std::uint8_t> payload) {
  MM_ASSERT_MSG(tag >= 0 && tag < reserved_tag_base,
                "user tags must be in [0, reserved_tag_base)");
  internal_send(dest, tag, std::move(payload));
}

Request Comm::isend(int dest, int tag, std::vector<std::uint8_t> payload) {
  send(dest, tag, std::move(payload));
  return Request::completed();
}

std::vector<std::uint8_t> Comm::recv(int source, int tag, RecvStatus* status) {
  fault_point();
  Mailbox& box = world_->mailbox(members_[static_cast<std::size_t>(rank_)]);
  obs::ThreadTrace& thread_trace = obs::thread_trace();
  const std::int64_t recv_t0 =
      thread_trace.ring != nullptr ? obs::now_ns() : 0;
  // Fast path: stack ticket inside the mailbox, zero allocation per receive.
  Message msg = box.receive(comm_id_, source, tag);
  bump(world_->metrics().recv_messages);
  bump(world_->metrics().recv_bytes, msg.payload.size());
  if (status != nullptr) {
    status->source = msg.source;
    status->tag = msg.tag;
    status->byte_count = msg.payload.size();
    status->trace_id = msg.trace_id;
    status->flow = msg.flow;
  }
  if (recv_t0 != 0 && msg.trace_id != 0) {
    // The recv span covers the wait; the flow finish lands inside it and
    // closes the arrow the sender started.
    const std::int64_t dur = std::max<std::int64_t>(obs::now_ns() - recv_t0, 1);
    thread_trace.ring->complete("recv", recv_t0, dur);
    thread_trace.ring->flow_finish("msg", recv_t0, msg.flow);
  }
  return std::move(msg.payload);
}

Expected<std::vector<std::uint8_t>> Comm::recv_for(std::chrono::milliseconds timeout,
                                                   int source, int tag,
                                                   RecvStatus* status) {
  fault_point();
  Mailbox& box = world_->mailbox(members_[static_cast<std::size_t>(rank_)]);
  obs::ThreadTrace& thread_trace = obs::thread_trace();
  const std::int64_t recv_t0 =
      thread_trace.ring != nullptr ? obs::now_ns() : 0;
  Message msg;
  // receive_for withdraws its (stack) ticket on timeout, so a message
  // arriving later stays available for future receives instead of being
  // swallowed by an abandoned ticket.
  if (!box.receive_for(comm_id_, source, tag, timeout, &msg)) {
    bump(world_->metrics().timeouts);
    return Error(Errc::timeout, "recv_for: no matching message within deadline");
  }
  bump(world_->metrics().recv_messages);
  bump(world_->metrics().recv_bytes, msg.payload.size());
  if (status != nullptr) {
    status->source = msg.source;
    status->tag = msg.tag;
    status->byte_count = msg.payload.size();
    status->trace_id = msg.trace_id;
    status->flow = msg.flow;
  }
  if (recv_t0 != 0 && msg.trace_id != 0) {
    const std::int64_t dur = std::max<std::int64_t>(obs::now_ns() - recv_t0, 1);
    thread_trace.ring->complete("recv", recv_t0, dur);
    thread_trace.ring->flow_finish("msg", recv_t0, msg.flow);
  }
  return std::move(msg.payload);
}

Request Comm::irecv(int source, int tag) {
  fault_point();
  Mailbox& box = world_->mailbox(members_[static_cast<std::size_t>(rank_)]);
  return Request::receiving(&box, box.post_recv(comm_id_, source, tag));
}

RecvStatus Comm::probe(int source, int tag) {
  fault_point();
  return world_->mailbox(members_[static_cast<std::size_t>(rank_)])
      .probe(comm_id_, source, tag);
}

Expected<RecvStatus> Comm::probe_for(std::chrono::milliseconds timeout, int source,
                                     int tag) {
  fault_point();
  RecvStatus status;
  if (!world_->mailbox(members_[static_cast<std::size_t>(rank_)])
           .probe_for(comm_id_, source, tag, timeout, &status)) {
    bump(world_->metrics().timeouts);
    return Error(Errc::timeout, "probe_for: no matching message within deadline");
  }
  return status;
}

bool Comm::iprobe(int source, int tag, RecvStatus* status) {
  fault_point();
  return world_->mailbox(members_[static_cast<std::size_t>(rank_)])
      .iprobe(comm_id_, source, tag, status);
}

std::vector<std::uint8_t> Comm::sendrecv(int dest, int send_tag,
                                         std::vector<std::uint8_t> payload, int source,
                                         int recv_tag, RecvStatus* status) {
  send(dest, send_tag, std::move(payload));
  return recv(source, recv_tag, status);
}

void Comm::barrier() {
  const int tag = next_collective_tag();
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) (void)recv(any_source, tag);
    for (int r = 1; r < size(); ++r) internal_send(r, tag, {});
  } else {
    internal_send(0, tag, {});
    (void)recv(0, tag);
  }
}

void Comm::bcast_bytes(std::vector<std::uint8_t>& buf, int root) {
  MM_ASSERT(root >= 0 && root < size());
  const int tag = next_collective_tag();
  const int n = size();
  if (n == 1) return;

  // Binomial tree rooted at `root`: virtual rank v = (rank - root) mod n.
  // Node v's parent clears v's lowest set bit; its children are v + bit for
  // every bit strictly below that lowest set bit (all bits for the root).
  const int v = (rank_ - root + n) % n;
  if (v != 0) {
    const int parent_v = v & (v - 1);
    buf = recv((parent_v + root) % n, tag);
  }
  const int lsb = (v == 0) ? (1 << 30) : (v & -v);
  int top = 1;
  while ((top << 1) < n) top <<= 1;
  for (int bit = top; bit >= 1; bit >>= 1) {
    if (bit >= lsb) continue;
    const int child_v = v | bit;
    if (child_v >= n) continue;
    internal_send((child_v + root) % n, tag, buf);
  }
}

std::vector<std::vector<std::uint8_t>> Comm::gather_bytes(std::vector<std::uint8_t> mine,
                                                          int root) {
  MM_ASSERT(root >= 0 && root < size());
  const int tag = next_collective_tag();
  std::vector<std::vector<std::uint8_t>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank_)] = std::move(mine);
    for (int i = 0; i < size() - 1; ++i) {
      RecvStatus status;
      auto payload = recv(any_source, tag, &status);
      out[static_cast<std::size_t>(status.source)] = std::move(payload);
    }
  } else {
    internal_send(root, tag, std::move(mine));
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather_bytes(
    std::vector<std::uint8_t> mine) {
  auto gathered = gather_bytes(std::move(mine), 0);
  // Frame the gathered buffers into one bcast payload.
  Packer packer;
  if (rank_ == 0) {
    packer.put<std::uint64_t>(gathered.size());
    for (const auto& part : gathered) packer.put_vector(part);
  }
  std::vector<std::uint8_t> framed = packer.take();
  bcast_bytes(framed, 0);
  if (rank_ == 0) return gathered;

  Unpacker unpacker(framed);
  const auto count = unpacker.get<std::uint64_t>();
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& part : out) part = unpacker.get_vector<std::uint8_t>();
  return out;
}

std::vector<std::uint8_t> Comm::scatter_bytes(
    const std::vector<std::vector<std::uint8_t>>& parts, int root) {
  MM_ASSERT(root >= 0 && root < size());
  const int tag = next_collective_tag();
  if (rank_ == root) {
    MM_ASSERT_MSG(static_cast<int>(parts.size()) == size(),
                  "scatter: need one part per member");
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      internal_send(r, tag, parts[static_cast<std::size_t>(r)]);
    }
    return parts[static_cast<std::size_t>(rank_)];
  }
  return recv(root, tag);
}

Comm Comm::split(int color, int key) {
  // Share (color, key) with every member.
  Packer packer;
  packer.put<int>(color);
  packer.put<int>(key);
  auto all = allgather_bytes(packer.take());

  struct Entry {
    int color;
    int key;
    int parent_rank;
  };
  std::vector<Entry> entries;
  entries.reserve(all.size());
  for (std::size_t r = 0; r < all.size(); ++r) {
    Unpacker unpacker(all[r]);
    Entry e;
    e.color = unpacker.get<int>();
    e.key = unpacker.get<int>();
    e.parent_rank = static_cast<int>(r);
    entries.push_back(e);
  }

  // Rank 0 allocates one fresh comm id per distinct color (ascending) so all
  // members agree on ids without racing the world allocator.
  std::map<int, std::uint64_t> color_ids;
  Packer id_packer;
  if (rank_ == 0) {
    for (const auto& e : entries)
      if (!color_ids.count(e.color)) color_ids[e.color] = 0;
    id_packer.put<std::uint64_t>(color_ids.size());
    for (auto& [c, id] : color_ids) {
      id = world_->allocate_comm_id();
      id_packer.put<int>(c);
      id_packer.put<std::uint64_t>(id);
    }
  }
  std::vector<std::uint8_t> id_buf = id_packer.take();
  bcast_bytes(id_buf, 0);
  if (rank_ != 0) {
    Unpacker unpacker(id_buf);
    const auto n = unpacker.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      const int c = unpacker.get<int>();
      const auto id = unpacker.get<std::uint64_t>();
      color_ids[c] = id;
    }
  }

  // My group, ordered by (key, parent rank).
  std::vector<Entry> group;
  for (const auto& e : entries)
    if (e.color == entries[static_cast<std::size_t>(rank_)].color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.parent_rank < b.parent_rank;
  });

  std::vector<int> members;
  members.reserve(group.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    members.push_back(members_[static_cast<std::size_t>(group[i].parent_rank)]);
    if (group[i].parent_rank == rank_) my_new_rank = static_cast<int>(i);
  }
  MM_ASSERT(my_new_rank >= 0);
  return Comm(world_, color_ids.at(entries[static_cast<std::size_t>(rank_)].color),
              my_new_rank, std::move(members));
}

Comm Comm::duplicate() {
  std::uint64_t new_id = 0;
  Packer packer;
  if (rank_ == 0) {
    new_id = world_->allocate_comm_id();
    packer.put<std::uint64_t>(new_id);
  }
  std::vector<std::uint8_t> buf = packer.take();
  bcast_bytes(buf, 0);
  if (rank_ != 0) {
    Unpacker unpacker(buf);
    new_id = unpacker.get<std::uint64_t>();
  }
  return Comm(world_, new_id, rank_, members_);
}

}  // namespace mm::mpi
