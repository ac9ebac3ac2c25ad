// Multi-process pipeline demo: the full pair-trading graph with one OS
// process per rank, talking over the TCP socket transport.
//
// Two ways to run it:
//
//   1. Orchestrated (default, what CI's transport-smoke job runs): the parent
//      binds the rendezvous port, forks one child per rank, runs the same
//      day in-process as a reference, and asserts the multi-process master
//      report is BIT-identical (hex-float compare) before printing
//      PIPELINE_2PROC_OK.
//
//        ./pipeline_2proc
//
//   2. By hand, one terminal per process: --rank reads the rank and the
//      rendezvous address from the environment (mpi::rendezvous_from_env)
//      and hands them to the pipeline as PipelineConfig::rendezvous:
//
//        MM_MPMINI_RANK=0 MM_MPMINI_RENDEZVOUS=127.0.0.1:7701 ./pipeline_2proc --rank
//        MM_MPMINI_RANK=1 MM_MPMINI_RENDEZVOUS=127.0.0.1:7701 ./pipeline_2proc --rank
//        ...                                           (6 ranks total)
//
//      The rank-5 (master) process prints the canonical summary.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"
#include "mpmini/socket_transport.hpp"
#include "wire/socket.hpp"

namespace {

using namespace mm;

constexpr std::size_t kSymbols = 5;
// collector, cleaner, snapshot, correlation, strategy-0, master
constexpr int kRanks = 6;
constexpr int kMasterRank = kRanks - 1;

engine::PipelineConfig demo_config() {
  engine::PipelineConfig config;
  config.symbols = kSymbols;
  core::StrategyParams p = core::ParamGrid::base();
  p.divergence = 0.0005;
  config.strategies = {p};
  return config;
}

md::GeneratorConfig demo_generator() {
  md::GeneratorConfig generator;
  generator.quote_rate = 0.15;
  return generator;
}

// Canonical textual image of the master-owned result. Hex floats: equality
// means the bits match across the in-process and multi-process runs.
std::string summarize(const engine::PipelineResult& r) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "orders=%llu trades=%llu pnl=%a\n",
                static_cast<unsigned long long>(r.master.orders),
                static_cast<unsigned long long>(r.master.trades),
                r.master.total_pnl);
  out += line;
  for (const auto& s : r.master.strategy_summaries) {
    std::snprintf(line, sizeof(line), "strategy=%d trades=%llu pnl=%a\n",
                  s.strategy_id, static_cast<unsigned long long>(s.trades),
                  s.total_pnl);
    out += line;
  }
  return out;
}

// Run this process's slice of the graph and return the local summary (only
// meaningful on the master rank).
std::string run_rank(const mpi::Rendezvous& rz) {
  const md::Universe universe = md::make_universe(kSymbols);
  const md::SyntheticDay day(universe, demo_generator(), 0);
  engine::PipelineConfig config = demo_config();
  config.rendezvous = &rz;
  const engine::PipelineResult result =
      engine::run_pipeline(config, universe, day.quotes());
  return summarize(result);
}

int run_env_rank() {
  auto rz = mpi::rendezvous_from_env();
  if (!rz.has_value()) {
    std::fprintf(stderr, "bad rendezvous env: %s\n",
                 rz.error().message.c_str());
    return 1;
  }
  const std::string summary = run_rank(rz.value());
  if (rz.value().rank == kMasterRank) std::fputs(summary.c_str(), stdout);
  return 0;
}

int run_orchestrated() {
  // In-process reference first: thread-per-rank over the SPSC rings.
  const md::Universe universe = md::make_universe(kSymbols);
  const md::SyntheticDay day(universe, demo_generator(), 0);
  const engine::PipelineResult reference =
      engine::run_pipeline(demo_config(), universe, day.quotes());
  const std::string expect = summarize(reference);
  std::printf("in-process reference:\n%s", expect.c_str());

  // Bind the rendezvous port before forking so no child can lose the race.
  std::uint16_t port = 0;
  auto listener = wire::tcp_listen("127.0.0.1", 0, &port);
  if (!listener.has_value()) {
    std::fprintf(stderr, "rendezvous bind failed: %s\n",
                 listener.error().message.c_str());
    return 1;
  }
  int report_pipe[2] = {-1, -1};
  if (pipe(report_pipe) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return 1;
  }

  std::vector<pid_t> children;
  for (int rank = 0; rank < kRanks; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed\n");
      return 1;
    }
    if (pid == 0) {
      ::close(report_pipe[0]);
      mpi::Rendezvous rz;
      rz.rank = rank;
      rz.port = port;
      if (rank == 0) rz.listen_fd = listener.value().release();
      int code = 0;
      try {
        const std::string summary = run_rank(rz);
        if (rank == kMasterRank) {
          std::size_t at = 0;
          while (at < summary.size()) {
            const ssize_t n = write(report_pipe[1], summary.data() + at,
                                    summary.size() - at);
            if (n <= 0) break;
            at += static_cast<std::size_t>(n);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d died: %s\n", rank, e.what());
        code = 1;
      }
      ::close(report_pipe[1]);
      _exit(code);
    }
    children.push_back(pid);
  }

  listener.value().close();
  ::close(report_pipe[1]);
  std::string got;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(report_pipe[0], buf, sizeof(buf))) > 0)
    got.append(buf, static_cast<std::size_t>(n));
  ::close(report_pipe[0]);

  bool ok = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    waitpid(children[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "rank %zu exited abnormally\n", i);
      ok = false;
    }
  }
  std::printf("multi-process (%d ranks over TCP):\n%s", kRanks, got.c_str());
  if (!ok || got != expect) {
    std::fprintf(stderr, "MISMATCH between in-process and multi-process runs\n");
    return 1;
  }
  std::printf("PIPELINE_2PROC_OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rank") == 0) return run_env_rank();
  return run_orchestrated();
}
