#include "mpmini/wait.hpp"

#include <cstdlib>
#include <thread>

#include "common/log.hpp"
#include "common/strings.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mm::mpi {
namespace {

const TransportEnv& env_values() {
  static const TransportEnv parsed = parse_transport_env(
      std::getenv("MM_MPMINI_TRANSPORT"), std::thread::hardware_concurrency());
  return parsed;
}

}  // namespace

TransportEnv parse_transport_env(const char* transport, unsigned hardware_threads) {
  TransportEnv env;

  if (hardware_threads <= 1) {
    // Single core: a pause can never let the peer progress, and long spins
    // just burn the timeslice the peer needs. Yield immediately, a few
    // times, then park.
    env.spin.iterations = 16;
    env.spin.pause_share = 0;
  }

  if (transport != nullptr && *transport != '\0') {
    const std::string value(transport);
    if (value == "ring") {
      env.transport = TransportMode::ring;
    } else if (value == "locked") {
      env.transport = TransportMode::locked;
    } else {
      env.warnings.push_back(
          format("MM_MPMINI_TRANSPORT='%s' is not ring|locked; using ring", transport));
    }
  }

  return env;
}

TransportMode transport_mode() { return env_values().transport; }

const SpinPolicy& spin_policy() { return env_values().spin; }

void validate_transport_env() {
  static const bool logged = [] {
    for (const std::string& warning : env_values().warnings)
      MM_LOG_WARN("mpmini: " << warning);
    return true;
  }();
  (void)logged;
}

void spin_relax(const SpinPolicy& policy, std::uint32_t step) {
  if (step < policy.pause_share) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
    return;
  }
  // Past the pause share the peer may need this core — give it up. On a
  // single-CPU host this is what makes spinning a win at all: the handoff
  // costs one scheduler pass instead of a futex sleep/wake pair.
  std::this_thread::yield();
}

}  // namespace mm::mpi
