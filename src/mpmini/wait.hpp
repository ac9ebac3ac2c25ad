// Spin-then-park wait strategy and the transport selector.
//
// The mpmini hot path never parks while traffic is flowing: a waiter polls
// its inbound rings through a bounded spin (cheap pause instructions first,
// then sched yields, with the yield share sized for core-oversubscribed
// hosts), and only after the budget is spent does it fall back to the
// mailbox's condition variable — the park side of the eventcount protocol in
// mailbox.cpp. The spin budget follows from the host's core count; the one
// knob is an environment variable read once per process and validated at
// Environment startup (a garbage value warns once and falls back to ring):
//
//   MM_MPMINI_TRANSPORT  "ring" (default) | "locked" — lane rings, or the
//                        legacy mutex/condvar-only delivery path
//
// The multi-process TCP transport is not selected here: a program hosts one
// rank over it by calling Environment::run_rendezvous (or setting
// RunOptions::rendezvous / PipelineConfig::rendezvous), and
// rendezvous_from_env reads MM_MPMINI_RANK and MM_MPMINI_RENDEZVOUS for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mm::mpi {

enum class TransportMode : std::uint8_t { ring, locked, socket };

struct SpinPolicy {
  // Total iterations before parking. The first `pause_share` of them issue a
  // CPU pause/relax; the rest yield the core so a same-core peer can run.
  std::uint32_t iterations = 512;
  std::uint32_t pause_share = 64;
};

// The transport selection and the host-derived spin policy, parsed and
// validated in one place. `warnings` holds one line per rejected value (the
// field carries the default instead).
struct TransportEnv {
  TransportMode transport = TransportMode::ring;
  SpinPolicy spin{};
  std::vector<std::string> warnings;
};

// Pure parser over the raw MM_MPMINI_TRANSPORT value (null = unset), exposed
// for tests. `hardware_threads` sizes the spin policy.
TransportEnv parse_transport_env(const char* transport, unsigned hardware_threads);

// Process-wide values (parsed from the environment on first use).
TransportMode transport_mode();
const SpinPolicy& spin_policy();

// Log each env-validation warning exactly once per process. Called at
// Environment startup so misconfigurations surface before traffic starts.
void validate_transport_env();

// One spin step: pause for low `step`, yield once past the policy's pause
// share. Callers loop `for (step = 0; step < policy.iterations; ++step)`.
void spin_relax(const SpinPolicy& policy, std::uint32_t step);

}  // namespace mm::mpi
