// The pluggable transport seam under Comm/World.
//
// A Transport moves envelopes toward destination mailboxes. Everything above
// it — envelope matching, deadline waits, fault injection, trace headers —
// is transport-agnostic, which is
// what makes "swap in a real interconnect" a transport change rather than a
// runtime rewrite:
//
//   * InProcessTransport — all ranks in one process; one mailbox per rank,
//     messages moved by SPSC lane rings (ring mode) or the locked mailbox
//     path. This is the PR 6 hot path, unchanged, behind the interface.
//   * SocketTransport (socket_transport.hpp) — one process per rank, full
//     TCP mesh; only the local rank's mailbox exists here.
#pragma once

#include <memory>

#include "mpmini/mailbox.hpp"
#include "mpmini/wait.hpp"

namespace mm::mpi {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportMode mode() const = 0;

  // Move `msg` toward `dest_world`'s mailbox. `src_world` names the sending
  // rank (lane selection in ring mode, peer link in socket mode). May throw
  // when the destination is unreachable — the sender's rank is poisoned,
  // matching a fault-plan kill.
  virtual void transmit(int src_world, int dest_world, Message&& msg) = 0;

  // The mailbox `world_rank`'s receives match in. Remote-rank
  // mailboxes do not exist on a socket transport (asserted).
  virtual Mailbox& mailbox(int world_rank) = 0;

  // Wire the queued-depth / ring-depth high-watermark gauges through to the
  // mailboxes this transport hosts.
  virtual void attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) = 0;

  // Lifecycle for transports holding external resources (sockets, reader
  // threads). start() runs before the rank main, stop() after it returns.
  virtual void start() {}
  virtual void stop() {}
};

class InProcessTransport final : public Transport {
 public:
  // `mode` must be ring or locked; socket worlds are built by Environment
  // with a SocketTransport instead.
  InProcessTransport(int world_size, TransportMode mode);

  TransportMode mode() const override { return mode_; }
  void transmit(int src_world, int dest_world, Message&& msg) override;
  Mailbox& mailbox(int world_rank) override;
  void attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) override;

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  TransportMode mode_;
};

}  // namespace mm::mpi
