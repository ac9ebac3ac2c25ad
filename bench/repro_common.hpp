// Shared flag handling for the experiment-driven repro binaries
// (Tables III-V, Figure 2): a common CLI and config builder so every table is
// regenerated from the identical experiment definition.
#pragma once

#include <cstdio>

#include "common/cli.hpp"
#include "core/experiment.hpp"

namespace mm::bench {

// Registers the shared experiment flags, parses argv and builds the config.
inline core::ExperimentConfig build_config(Cli& cli, int argc, char** argv) {
  auto& symbols = cli.add_int("symbols", 20, "universe size (2..61)");
  auto& days = cli.add_int("days", 5, "trading days starting 2008-03-03");
  auto& seed = cli.add_int("seed", 20080303, "generator seed");
  auto& ranks = cli.add_int("ranks", 4, "threads for the pair fan-out");
  auto& full = cli.add_flag("full", "paper scale: 61 symbols, 20 days");
  cli.parse(argc, argv);

  core::ExperimentConfig cfg;
  cfg.symbols = static_cast<std::size_t>(full ? 61 : symbols);
  cfg.days = static_cast<int>(full ? 20 : days);
  cfg.generator.seed = static_cast<std::uint64_t>(seed);
  cfg.ranks = static_cast<int>(ranks);
  return cfg;
}

inline core::ExperimentResult run_with_banner(const core::ExperimentConfig& cfg,
                                              const char* what) {
  std::printf("%s\n", what);
  std::printf("experiment: %zu symbols (%zu pairs), %d days, "
              "14 levels x 3 correlation types = 42 strategies, %d ranks\n\n",
              cfg.symbols, cfg.symbols * (cfg.symbols - 1) / 2, cfg.days, cfg.ranks);
  auto result = core::run_experiment(cfg);
  std::printf("ran %llu trades over %zu quotes (%zu dropped by cleaning) "
              "in %.1f s\n\n",
              static_cast<unsigned long long>(result.total_trades),
              result.quotes_processed, result.quotes_dropped, result.wall_seconds);
  return result;
}

}  // namespace mm::bench
