// Deterministic fault injection for the mpmini runtime.
//
// A FaultPlan describes message-level faults (drop / duplicate / delay) and a
// rank kill, and is installed on a World before any rank starts. Every
// per-message decision is a pure hash of (seed, envelope), NOT a draw from a
// shared generator, so the injected fault set is identical run-to-run
// regardless of thread interleaving — the property the fault-matrix tests
// rely on to assert exact degraded-mode results.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "mpmini/message.hpp"

namespace mm::mpi {

// Thrown by any mpmini operation attempted on a rank the FaultPlan has
// killed. Once a rank's operation counter reaches the kill step, every
// subsequent operation throws too: a dead rank stays dead and cannot even
// send a dying-breath message.
class RankKilled : public std::runtime_error {
 public:
  explicit RankKilled(int world_rank)
      : std::runtime_error("rank " + std::to_string(world_rank) +
                           " killed by fault plan"),
        rank_(world_rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

// What to do with one message in flight.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  std::chrono::microseconds delay{0};
};

struct FaultPlan {
  std::uint64_t seed = 0;

  // Per-message probabilities, decided independently per envelope.
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  std::chrono::microseconds delay{0};  // applied when the delay draw fires

  // Kill `kill_rank` (world rank, -1 = nobody) when it starts its
  // `kill_at_op`-th mpmini operation (sends and receive initiations both
  // count, 1-based). Any step is meaningful: 1 models a rank that dies
  // before it sends or receives anything.
  int kill_rank = -1;
  std::uint64_t kill_at_op = 0;

  bool active() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0 ||
           kill_rank >= 0;
  }

  // Deterministic per-message decision. `dest_world_rank` disambiguates
  // duplicate (comm, source, sequence) envelopes across destinations.
  FaultDecision decide(const Message& msg, int dest_world_rank) const;
};

}  // namespace mm::mpi
