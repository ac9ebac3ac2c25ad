// Communicators and the shared world for the mpmini runtime.
//
// A World owns one mailbox per rank. A Comm is a view over a subset of world
// ranks (the world communicator covers all of them) with its own id, so that
// traffic in different communicators never cross-matches — the property the
// DAG scheduler uses to give every edge and every group node a private
// channel namespace. Communication is point to point only: buffered sends and
// blocking or deadline receives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "mpmini/fault.hpp"
#include "mpmini/mailbox.hpp"
#include "mpmini/message.hpp"
#include "mpmini/transport.hpp"
#include "mpmini/wait.hpp"
#include "obs/registry.hpp"

namespace mm::mpi {

// Transport-level telemetry handles, resolved once per world when a registry
// is attached (all null otherwise — the hot path checks one pointer).
struct WorldObs {
  obs::Counter* send_messages = nullptr;     // mpmini.send.messages
  obs::Counter* send_bytes = nullptr;        // mpmini.send.bytes
  obs::Counter* recv_messages = nullptr;     // mpmini.recv.messages
  obs::Counter* recv_bytes = nullptr;        // mpmini.recv.bytes
  obs::Counter* timeouts = nullptr;          // mpmini.deadline.timeouts
  obs::Counter* faults_dropped = nullptr;    // mpmini.fault.dropped
  obs::Counter* faults_duplicated = nullptr; // mpmini.fault.duplicated
  obs::Counter* faults_delayed = nullptr;    // mpmini.fault.delayed
};

class World {
 public:
  // `mode` picks the intra-process transport: lock-free lane rings (default,
  // or whatever MM_MPMINI_TRANSPORT says) or the legacy locked mailbox path
  // (the bench's before/after baseline). Ring mode requires each world rank
  // to SEND from a single thread (see Comm); the locked mode has no such
  // restriction. A bare World never builds the socket transport — when the
  // env selects it, Environment::run routes through run_rendezvous and
  // injects a SocketTransport via the third constructor.
  explicit World(int size);
  World(int size, TransportMode mode);
  World(int size, std::unique_ptr<Transport> transport);

  int size() const { return size_; }
  TransportMode transport() const { return transport_->mode(); }
  Transport& transport_layer() { return *transport_; }
  Mailbox& mailbox(int world_rank) { return transport_->mailbox(world_rank); }
  void transmit(int src_world, int dest_world, Message&& msg) {
    transport_->transmit(src_world, dest_world, std::move(msg));
  }
  std::uint64_t allocate_comm_id() { return next_comm_id_.fetch_add(1); }

  // Install the fault plan BEFORE any rank thread starts (never concurrently
  // with traffic); ranks read it without synchronization afterwards.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  const FaultPlan& fault_plan() const { return fault_plan_; }

  // Register transport metrics on `registry` and start recording into them.
  // Like the fault plan, attach BEFORE any rank thread starts.
  void attach_obs(obs::Registry& registry);
  const WorldObs& metrics() const { return metrics_; }

  // Advance `world_rank`'s operation counter; throws RankKilled once the
  // fault plan's kill step is reached (and on every operation after it).
  void check_op(int world_rank);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

 private:
  int size_ = 0;
  std::unique_ptr<Transport> transport_;
  std::atomic<std::uint64_t> next_comm_id_{1};
  FaultPlan fault_plan_{};
  WorldObs metrics_{};
  std::unique_ptr<std::atomic<std::uint64_t>[]> op_counts_;
};

// One rank's handle on a communicator. Each rank thread owns its own Comm
// instance; instances are cheap to copy (they share the World).
//
// Threading contract (ring transport, the default): all sends attributed to
// one world rank — across every Comm built for that rank — must originate
// from a single thread, because the rank's outbound lanes are
// single-producer rings. Receives on one rank may run from multiple threads
// (the mailbox serializes them). Debug builds assert the
// send-side rule; use TransportMode::locked (or MM_MPMINI_TRANSPORT=locked)
// when a rank must send from several threads.
class Comm {
 public:
  // World communicator for `rank` (used by Environment).
  Comm(World* world, std::uint64_t comm_id, int rank, std::vector<int> members);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }

  // --- point to point -------------------------------------------------
  // Buffered send: the payload is moved toward dest's mailbox immediately.
  // Tags are non-negative (negative values are the receive wildcards).
  void send(int dest, int tag, std::vector<std::uint8_t> payload);

  // Blocking receive; source/tag may be wildcards. If status is non-null the
  // actual envelope is reported (useful with wildcards).
  std::vector<std::uint8_t> recv(int source = any_source, int tag = any_tag,
                                 RecvStatus* status = nullptr);

  // Deadline receive: the payload, or Errc::timeout if no matching message
  // arrived in time. On timeout the posted receive is withdrawn — a message
  // arriving later stays available for future receives instead of being
  // swallowed by an abandoned ticket.
  Expected<std::vector<std::uint8_t>> recv_for(std::chrono::milliseconds timeout,
                                               int source = any_source,
                                               int tag = any_tag,
                                               RecvStatus* status = nullptr);

  // Typed conveniences for trivially copyable values / element vectors.
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> buf(sizeof(T));
    std::memcpy(buf.data(), &value, sizeof(T));
    send(dest, tag, std::move(buf));
  }

  template <typename T>
  T recv_value(int source = any_source, int tag = any_tag, RecvStatus* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto buf = recv(source, tag, status);
    MM_ASSERT_MSG(buf.size() == sizeof(T), "recv_value: payload size mismatch");
    T value;
    std::memcpy(&value, buf.data(), sizeof(T));
    return value;
  }

  template <typename T>
  void send_span(int dest, int tag, const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> buf(count * sizeof(T));
    std::memcpy(buf.data(), data, buf.size());
    send(dest, tag, std::move(buf));
  }

  template <typename T>
  std::vector<T> recv_elems(int source = any_source, int tag = any_tag,
                            RecvStatus* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto buf = recv(source, tag, status);
    MM_ASSERT_MSG(buf.size() % sizeof(T) == 0, "recv_elems: payload not a whole count");
    std::vector<T> out(buf.size() / sizeof(T));
    std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

  // Sub-communicator over this comm's ranks [first, first + count), in
  // order, built locally without a message: every member that passes the
  // same arguments gets the same communicator, in any thread or process.
  // Its id is a pure function of (id(), index) with the top bit set, a range
  // World::allocate_comm_id never reaches, so distinct indices and allocated
  // communicators never cross-match. The calling rank must lie in the range,
  // and this comm must not itself be a subgroup.
  Comm subgroup(int index, int first, int count) const;

  World& world() const { return *world_; }
  std::uint64_t id() const { return comm_id_; }

 private:
  // The one receive body behind recv and recv_for: fault point, mailbox
  // wait (nanoseconds::max() = no deadline), metrics, status and the recv
  // span closing the sender's flow. False on timeout.
  bool receive(std::chrono::nanoseconds timeout, int source, int tag,
               RecvStatus* status, Message* msg);

  // Fault-plan hook at the start of every operation (may throw RankKilled).
  void fault_point();

  World* world_ = nullptr;
  std::uint64_t comm_id_ = 0;
  int rank_ = 0;                // my rank within this communicator
  std::vector<int> members_;    // comm rank -> world rank
  std::uint64_t send_seq_ = 0;
};

}  // namespace mm::mpi
