// Launchers for mpmini programs: thread-per-rank, or one process per rank.
//
// Environment::run(n, fn) plays the role of mpirun: it creates an n-rank
// world, starts one thread per rank, hands each a world communicator, and
// joins. A rank that throws poisons the run; the first exception is rethrown
// to the caller after all ranks have finished.
//
// Environment::run_rendezvous(rz, n, fn) instead drives ONLY the local rank
// `rz.rank` over the TCP socket transport, meeting the other rank processes
// at the rendezvous address — mpirun's role moves to whatever launched the
// processes (scripts/transport_smoke.sh shows the pattern). It is the one
// route into multi-process mode; Graph::run reaches it through
// RunOptions::rendezvous.
#pragma once

#include <chrono>
#include <functional>

#include "mpmini/comm.hpp"
#include "mpmini/fault.hpp"
#include "mpmini/socket_transport.hpp"
#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"

namespace mm::mpi {

class Environment {
 public:
  // Runs `rank_main` on `world_size` ranks and blocks until all complete.
  static void run(int world_size, const std::function<void(Comm&)>& rank_main);

  // Same, with a fault plan installed on the world before any rank starts.
  // A rank killed by the plan surfaces as a rethrown RankKilled (first error
  // wins) once every rank has finished — callers that inject kills must make
  // the surviving ranks deadline-aware or they will wait on the dead rank
  // forever.
  //
  // With a non-null `metrics` registry the world records transport telemetry
  // into it (see WorldObs); the registry must outlive the run.
  //
  // With a non-null `heartbeat` board (one slot per rank, owned by the
  // caller's monitoring plane) every rank thread arms a pulse before
  // rank_main and publishes beats from the transport hook and the mailbox's
  // blocking waits. A rank that returns normally retires its slot (`done`);
  // one that throws — fault-plan kill or its own exception — leaves the slot
  // unretired and goes silent, which the heartbeat monitor reports as `down`.
  static void run(int world_size, const std::function<void(Comm&)>& rank_main,
                  const FaultPlan& fault, obs::Registry* metrics = nullptr,
                  obs::HeartbeatBoard* heartbeat = nullptr,
                  std::chrono::nanoseconds heartbeat_interval =
                      std::chrono::milliseconds{100});

  // Multi-process launcher: runs ONLY rank `rz.rank` of a `world_size`-rank
  // world in this process, connected to its peers over the TCP socket
  // transport (see socket_transport.hpp for the handshake). Every rank
  // process must call this with the same world_size; the call returns after
  // the local rank main finished AND the goodbye barrier drained in-flight
  // traffic, so joining all rank processes is equivalent to the thread
  // launcher's join-all. The fault plan applies to the local rank only;
  // heartbeat boards observe only local slots (each process has its own
  // monitoring plane).
  static void run_rendezvous(const Rendezvous& rz, int world_size,
                             const std::function<void(Comm&)>& rank_main,
                             const FaultPlan& fault = FaultPlan{},
                             obs::Registry* metrics = nullptr,
                             obs::HeartbeatBoard* heartbeat = nullptr,
                             std::chrono::nanoseconds heartbeat_interval =
                                 std::chrono::milliseconds{100});
};

}  // namespace mm::mpi
