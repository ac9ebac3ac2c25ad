#include "mpmini/transport.hpp"

namespace mm::mpi {

InProcessTransport::InProcessTransport(int world_size, TransportMode mode)
    : mode_(mode) {
  MM_ASSERT_MSG(world_size > 0, "World size must be positive");
  MM_ASSERT_MSG(mode_ != TransportMode::socket,
                "socket worlds are built by Environment::run_rendezvous");
  mailboxes_.reserve(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  if (mode_ == TransportMode::ring)
    for (auto& mailbox : mailboxes_) mailbox->init_lanes(world_size);
}

void InProcessTransport::transmit(int src_world, int dest_world, Message&& msg) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest_world)];
  // Hot path: a lane-ring push in ring mode (lock-free, no contention with
  // other senders), the locked mailbox path otherwise — and also when the
  // bounded ring is full, where deliver() drains this lane first so
  // per-(source, comm) order still holds.
  if (mode_ == TransportMode::ring) {
    Lane& lane = box.lane_for_sender(src_world);
    if (lane.ring.try_push(std::move(msg))) {
      box.notify_ring_push();
      return;
    }
  }
  box.deliver(std::move(msg));
}

Mailbox& InProcessTransport::mailbox(int world_rank) {
  MM_ASSERT(world_rank >= 0 &&
            world_rank < static_cast<int>(mailboxes_.size()));
  return *mailboxes_[static_cast<std::size_t>(world_rank)];
}

void InProcessTransport::attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) {
  for (auto& mailbox : mailboxes_) mailbox->set_obs(queue_peak, ring_peak);
}

}  // namespace mm::mpi
