#include "mpmini/fault.hpp"

#include "common/rng.hpp"

namespace mm::mpi {
namespace {

// Collapse an envelope into one 64-bit stream position, then expand through
// splitmix64 so structurally similar envelopes decorrelate.
std::uint64_t envelope_hash(std::uint64_t seed, const Message& msg,
                            int dest_world_rank, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  state ^= splitmix64(state) ^ msg.comm_id;
  state ^= splitmix64(state) ^ (static_cast<std::uint64_t>(msg.source) << 32 |
                                static_cast<std::uint32_t>(dest_world_rank));
  state ^= splitmix64(state) ^ msg.sequence;
  state ^= splitmix64(state) ^ static_cast<std::uint64_t>(msg.tag);
  return splitmix64(state);
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultDecision FaultPlan::decide(const Message& msg, int dest_world_rank) const {
  FaultDecision decision;
  const double u = to_unit(envelope_hash(seed, msg, dest_world_rank, 1));
  if (u < drop_prob) {
    decision.drop = true;
    return decision;
  }
  if (u < drop_prob + duplicate_prob) decision.duplicate = true;
  if (delay_prob > 0.0 &&
      to_unit(envelope_hash(seed, msg, dest_world_rank, 2)) < delay_prob)
    decision.delay = delay;
  return decision;
}

}  // namespace mm::mpi
