// Ablations of the design decisions DESIGN.md calls out:
//
//   1. cleaning — run the strategies on RAW vs CLEANED streams per treatment,
//      quantifying how much the TCP-like filter is worth and how much Maronna
//      self-defends without it;
//   2. PSD repair — how often the pairwise-Maronna market matrix is actually
//      indefinite, how negative its spectrum goes, and how much the
//      eigenvalue-clipping repair perturbs the coefficients.
//
// (A further ablation lives in the microbenches: incremental vs batch
// Pearson in bench_correlation.)
#include <cstdio>

#include "common/cli.hpp"
#include "core/backtester.hpp"
#include "core/metrics.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"
#include "stats/corr_engine.hpp"
#include "stats/psd.hpp"

namespace {

using namespace mm;

struct StrategyOutcome {
  double mean_daily_return = 0.0;
  std::uint64_t trades = 0;
};

StrategyOutcome run_all_pairs(const std::vector<std::vector<double>>& bam,
                              stats::Ctype ctype) {
  core::StrategyParams params = core::ParamGrid::base();
  params.ctype = ctype;
  params.divergence = 0.0005;
  const auto market = core::compute_market_corr_series(
      bam, params.corr_window, ctype != stats::Ctype::pearson);
  const auto pairs = stats::all_pairs(bam.size());
  StrategyOutcome outcome;
  double sum = 0.0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto trades =
        core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k);
    std::vector<double> returns;
    for (const auto& t : trades) returns.push_back(t.trade_return);
    sum += core::cumulative_return(returns);
    outcome.trades += trades.size();
  }
  outcome.mean_daily_return = sum / static_cast<double>(pairs.size());
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("repro_ablations", "Cleaning and PSD-repair ablations");
  auto& symbols = cli.add_int("symbols", 10, "universe size");
  auto& seed = cli.add_int("seed", 20080303, "generator seed");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(symbols);
  const auto universe = md::make_universe(n);
  md::GeneratorConfig gen;
  gen.seed = static_cast<std::uint64_t>(seed);
  gen.quote_rate = 0.4;
  gen.bad_tick_rate = 0.008;  // dirtier than default to stress the ablation
  const md::SyntheticDay day(universe, gen, 0);

  // --- ablation 1: cleaning on/off ----------------------------------------
  const auto raw_bam = md::sample_bam_series(day.quotes(), n, gen.session, 30);
  md::QuoteCleaner cleaner(n, md::CleanerConfig{});
  const auto clean_bam =
      md::sample_bam_series(cleaner.clean(day.quotes()), n, gen.session, 30);

  std::printf("ablation 1 — TCP-like cleaning filter "
              "(%zu symbols, %zu quotes, %zu corrupted at source)\n\n",
              n, day.quotes().size(), day.corrupted_count());
  std::printf("  %-10s %16s %10s %16s %10s %14s\n", "Ctype", "raw mean ret",
              "raw trades", "clean mean ret", "trades", "cleaning gain");
  for (const auto ctype : stats::all_ctypes) {
    const auto raw = run_all_pairs(raw_bam, ctype);
    const auto clean = run_all_pairs(clean_bam, ctype);
    std::printf("  %-10s %15.3f%% %10llu %15.3f%% %10llu %13.3f%%\n",
                stats::to_string(ctype), raw.mean_daily_return * 100.0,
                static_cast<unsigned long long>(raw.trades),
                clean.mean_daily_return * 100.0,
                static_cast<unsigned long long>(clean.trades),
                (clean.mean_daily_return - raw.mean_daily_return) * 100.0);
  }
  std::printf("\nshape check: the raw-stream numbers are FANTASY — the backtest\n"
              "\"executes\" against fat-finger prints and far-out test quotes at\n"
              "prices nobody could trade, booking enormous fake reversion profits.\n"
              "That is precisely why §III cleans before analyzing: the filtered\n"
              "stream yields sane sub-percent daily returns and a stable trade\n"
              "count across treatments.\n\n");

  // --- ablation 2: PSD repair of the pairwise-Maronna matrix ---------------
  std::printf("ablation 2 — PSD repair of the pairwise Maronna matrix (§IV "
              "caveat)\n\n");
  // Short windows + the raw (dirty) stream is where pairwise estimation loses
  // PSD: every pair sees a different subset of outliers, so the assembled
  // matrix stops being a single consistent scatter.
  constexpr std::size_t psd_window = 15;
  stats::CorrEngineConfig cfg;
  cfg.type = stats::Ctype::maronna;
  cfg.window = psd_window;
  stats::CorrelationCalculator calc(cfg, n);
  std::vector<std::vector<double>> returns(n);
  for (std::size_t i = 0; i < n; ++i) returns[i] = md::log_returns(raw_bam[i]);

  int checked = 0, indefinite = 0;
  double worst_eigenvalue = 0.0;
  double worst_repair_delta = 0.0;
  std::vector<double> step(n);
  for (std::size_t s = 0; s < returns[0].size(); ++s) {
    for (std::size_t i = 0; i < n; ++i) step[i] = returns[i][s];
    calc.push(step);
    if (!calc.ready() || s % 10 != 0) continue;
    const auto matrix = calc.matrix();
    const double min_eig = stats::min_eigenvalue(matrix);
    ++checked;
    if (min_eig < -1e-9) {
      ++indefinite;
      worst_eigenvalue = std::min(worst_eigenvalue, min_eig);
      const auto repaired = stats::nearest_psd_correlation(matrix);
      worst_repair_delta = std::max(worst_repair_delta,
                                    stats::SymMatrix::max_abs_diff(matrix, repaired));
    }
  }
  std::printf("  matrices checked:        %d (every 10th interval, M = %zu, raw "
              "stream)\n",
              checked, psd_window);
  std::printf("  indefinite (not PSD):    %d (%.1f%%)\n", indefinite,
              checked > 0 ? 100.0 * indefinite / checked : 0.0);
  std::printf("  worst min eigenvalue:    %.3e\n", worst_eigenvalue);
  std::printf("  worst repair |delta C|:  %.3e\n", worst_repair_delta);
  std::printf("\nshape check: pairwise robust estimation does break PSD (the\n"
              "paper's Approach 2 complaint), and the clipping repair fixes it\n"
              "with only small coefficient perturbations.\n");
  return 0;
}
