#include "mpmini/environment.hpp"

#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "mpmini/wait.hpp"

namespace mm::mpi {

void Environment::run(int world_size, const std::function<void(Comm&)>& rank_main) {
  run(world_size, rank_main, FaultPlan{});
}

void Environment::run(int world_size, const std::function<void(Comm&)>& rank_main,
                      const FaultPlan& fault, obs::Registry* metrics,
                      obs::HeartbeatBoard* heartbeat,
                      std::chrono::nanoseconds heartbeat_interval) {
  MM_ASSERT_MSG(world_size > 0, "world_size must be positive");
  MM_ASSERT_MSG(heartbeat == nullptr || heartbeat->size() >= world_size,
                "heartbeat board is smaller than the world");
  // Surface env-knob misconfigurations (warn-once) before traffic starts.
  validate_transport_env();

  World world(world_size);
  world.set_fault_plan(fault);
  if (metrics != nullptr) world.attach_obs(*metrics);
  std::vector<int> members(static_cast<std::size_t>(world_size));
  std::iota(members.begin(), members.end(), 0);
  const std::uint64_t world_comm_id = world.allocate_comm_id();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      log::set_thread_label(format("rank %d", rank));
      obs::PulseGuard pulse(heartbeat, rank, heartbeat_interval);
      Comm comm(&world, world_comm_id, rank, members);
      try {
        rank_main(comm);
        // Clean completion only: a killed rank's pulse is marked dead (this
        // retire is then a no-op) and an exception path never gets here, so
        // the monitor sees silence — `down`, never `done` — for real deaths.
        pulse.retire();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        MM_LOG_ERROR("rank " << rank << " terminated with an exception");
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void Environment::run_rendezvous(const Rendezvous& rz, int world_size,
                                 const std::function<void(Comm&)>& rank_main,
                                 const FaultPlan& fault, obs::Registry* metrics,
                                 obs::HeartbeatBoard* heartbeat,
                                 std::chrono::nanoseconds heartbeat_interval) {
  MM_ASSERT_MSG(world_size > 0, "world_size must be positive");
  MM_ASSERT_MSG(rz.rank >= 0 && rz.rank < world_size,
                "rendezvous rank out of range for the world");
  MM_ASSERT_MSG(heartbeat == nullptr || heartbeat->size() >= world_size,
                "heartbeat board is smaller than the world");
  validate_transport_env();

  World world(world_size, std::make_unique<SocketTransport>(world_size, rz));
  world.set_fault_plan(fault);
  if (metrics != nullptr) world.attach_obs(*metrics);
  // Handshake after wiring obs so early inbound traffic lands in
  // instrumented mailboxes.
  world.transport_layer().start();

  std::vector<int> members(static_cast<std::size_t>(world_size));
  std::iota(members.begin(), members.end(), 0);
  // Every process allocates the same first id from its own world, so the
  // world comm is id #1 everywhere by construction; subgroup ids are pure
  // functions of it (Comm::subgroup), so comm-id agreement across processes
  // needs no traffic.
  const std::uint64_t world_comm_id = world.allocate_comm_id();

  std::exception_ptr error;
  {
    log::set_thread_label(format("rank %d", rz.rank));
    obs::PulseGuard pulse(heartbeat, rz.rank, heartbeat_interval);
    Comm comm(&world, world_comm_id, rz.rank, members);
    try {
      rank_main(comm);
      pulse.retire();
    } catch (...) {
      error = std::current_exception();
      MM_LOG_ERROR("rank " << rz.rank << " terminated with an exception");
    }
  }
  // Goodbye barrier even on the error path: peers blocked on traffic this
  // rank already sent still drain it before everyone tears down.
  world.transport_layer().stop();
  if (error) std::rethrow_exception(error);
}

}  // namespace mm::mpi
