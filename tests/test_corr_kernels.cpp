// Golden tests for the stateful correlation kernels: warm-started Maronna
// must track the batch (cold-start) estimator through outlier bursts and
// degenerate stretches, and the blocked Pearson matrix kernel must equal the
// element-wise incremental path bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/backtester.hpp"
#include "stats/corr_engine.hpp"
#include "stats/maronna.hpp"
#include "stats/windows.hpp"

namespace mm::stats {
namespace {

// 500-step correlated return stream with two adversarial episodes:
//   * steps 120..134 — fat-finger outlier bursts on symbols 0 and 2 (when
//     the stream has a symbol 2), alternating sign, 500× the return scale,
//   * steps 250..309 — symbol 1 freezes (exactly constant value), long
//     enough to drive its whole window degenerate and out again.
std::vector<std::vector<double>> golden_stream(std::size_t symbols,
                                               std::size_t steps,
                                               std::uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<std::vector<double>> out(steps, std::vector<double>(symbols));
  for (std::size_t s = 0; s < steps; ++s) {
    const double f = rng.normal();
    for (std::size_t i = 0; i < symbols; ++i)
      out[s][i] = 1e-4 * (0.7 * f + rng.normal());
    if (s >= 120 && s < 135) {
      out[s][0] = (s % 2 == 0 ? 5e-2 : -5e-2);
      if (symbols > 2) out[s][2] = (s % 2 == 0 ? -5e-2 : 5e-2);
    }
    if (s >= 250 && s < 310) out[s][1] = 2.5e-4;
  }
  return out;
}

TEST(WarmMaronna, GoldenStreamMatchesColdWithinTolerance) {
  constexpr std::size_t symbols = 5;
  constexpr std::size_t window = 40;
  const auto stream = golden_stream(symbols, 500, 42);

  // Tight tolerance so both paths run to the shared fixed point; the 1e-8
  // agreement below is the contract documented in DESIGN.md. The iteration
  // contracts slowly under heavy contamination, so the distance to the fixed
  // point can exceed the step-size tolerance by ~100x — hence 1e-12 here.
  CorrEngineConfig cold_cfg;
  cold_cfg.type = Ctype::maronna;
  cold_cfg.window = window;
  cold_cfg.maronna.tolerance = 1e-12;
  cold_cfg.maronna.max_iterations = 2000;
  CorrEngineConfig warm_cfg = cold_cfg;
  warm_cfg.warm_start = true;

  CorrelationCalculator cold(cold_cfg, symbols);
  CorrelationCalculator warm(warm_cfg, symbols);

  std::size_t compared = 0;
  for (const auto& r : stream) {
    cold.push(r);
    warm.push(r);
    if (!cold.ready()) continue;
    const auto mc = cold.matrix();
    const auto mw = warm.matrix();
    const double diff = SymMatrix::max_abs_diff(mc, mw);
    ASSERT_LE(diff, 1e-8) << "at step " << compared;
    ++compared;
  }
  EXPECT_GT(compared, 400u);
}

TEST(WarmMaronna, DegenerateStretchesMatchBatchExactly) {
  // While a window is exactly constant the engine must fall back to the cold
  // start, which reproduces the batch estimator bit-for-bit (including its
  // "zero dispersion -> correlation 0" convention).
  constexpr std::size_t symbols = 3;
  constexpr std::size_t window = 20;
  const auto stream = golden_stream(symbols, 400, 7);

  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = window;
  cfg.warm_start = true;
  cfg.maronna.tolerance = 1e-12;
  cfg.maronna.max_iterations = 2000;
  CorrelationCalculator warm(cfg, symbols);

  std::vector<std::vector<double>> history(symbols);
  std::vector<double> wx(window), wy(window);
  for (const auto& r : stream) {
    warm.push(r);
    for (std::size_t i = 0; i < symbols; ++i) history[i].push_back(r[i]);
    if (!warm.ready()) continue;
    const std::size_t steps = history[0].size();
    // Symbol 1 is frozen over steps 250..310: its windows pass through
    // partially- and fully-degenerate states. Compare against batch.
    if (steps >= 260 && steps <= 340) {
      const std::size_t lo = steps - window;
      for (std::size_t t = 0; t < window; ++t) {
        wx[t] = history[0][lo + t];
        wy[t] = history[1][lo + t];
      }
      const double batch = maronna(wx.data(), wy.data(), window, cfg.maronna);
      EXPECT_NEAR(warm.pair(0, 1), batch, 1e-8) << "at step " << steps;
    }
  }
}

TEST(WarmMaronna, WarmPathActuallyRunsWarm) {
  // Sanity check on the machinery itself: on a clean stream the warm path
  // must dominate, with cold starts only at seeding/restart cadence.
  constexpr std::size_t window = 30;
  const auto stream = golden_stream(2, 300, 9);
  WarmMaronna warm(1, MaronnaConfig{});
  ReturnWindows windows(2, window, false);
  std::vector<double> arena(2 * window);
  for (const auto& r : stream) {
    windows.push(r);
    warm.advance();
    if (!windows.ready()) continue;
    windows.unwrap_all(arena.data());
    warm.estimate(0, arena.data(), arena.data() + window, window);
  }
  EXPECT_GT(warm.warm_calls(), 4 * warm.cold_calls());
  EXPECT_GE(warm.cold_calls(), 1u);  // at least the initial seed + cadence
}

TEST(WarmMaronna, ReestimateFallsBackOnBadSeed) {
  const auto stream = golden_stream(2, 60, 11);
  std::vector<double> x, y;
  for (const auto& r : stream) {
    x.push_back(r[0]);
    y.push_back(r[1]);
  }
  const auto cold = maronna_estimate(x.data(), y.data(), x.size());

  MaronnaResult bad;  // default: not converged, zero scatter
  const auto fell_back = maronna_reestimate(x.data(), y.data(), x.size(), bad);
  EXPECT_DOUBLE_EQ(fell_back.correlation, cold.correlation);

  MaronnaResult poisoned = cold;
  poisoned.scatter_xx = std::nan("");
  const auto fell_back2 =
      maronna_reestimate(x.data(), y.data(), x.size(), poisoned);
  EXPECT_DOUBLE_EQ(fell_back2.correlation, cold.correlation);
}

TEST(MadIsZero, MatchesMedianDefinition) {
  // mad_is_zero must agree with "a strict majority of values coincide", and
  // with the cold start's own MAD (robust_scale) being exactly zero: the
  // warm path's degeneracy flag and the cold path's floors follow one rule.
  MaronnaScratch scratch;
  const auto expect_mad_zero = [&](const std::vector<double>& v, bool zero) {
    EXPECT_EQ(mad_is_zero(v.data(), v.size()), zero);
    EXPECT_EQ(robust_scale(v.data(), v.size(), scratch).mad == 0.0, zero);
  };
  expect_mad_zero({1.0, 1.0, 1.0, 2.0, 3.0}, true);
  expect_mad_zero({1.0, 1.0, 2.0, 2.0, 3.0}, false);
  expect_mad_zero({4.0, 4.0, 4.0, 4.0}, true);
  expect_mad_zero({1.0, 2.0}, false);
  // Exactly half is not a majority (even n: the upper middle deviation is
  // nonzero, so the MAD is nonzero).
  expect_mad_zero({5.0, 5.0, 1.0, 2.0}, false);
}

TEST(PearsonMatrix, EqualsElementwisePearsonExactly) {
  constexpr std::size_t symbols = 9;
  constexpr std::size_t window = 25;
  const auto stream = golden_stream(symbols, 300, 13);
  ReturnWindows w(symbols, window, true);
  SymMatrix m;
  for (const auto& r : stream) {
    w.push(r);
    if (!w.ready()) continue;
    w.pearson_matrix(m);
    ASSERT_EQ(m.size(), symbols);
    for (std::size_t i = 0; i < symbols; ++i) {
      ASSERT_DOUBLE_EQ(m(i, i), 1.0);
      for (std::size_t j = i + 1; j < symbols; ++j)
        ASSERT_DOUBLE_EQ(m(i, j), w.pearson(i, j))
            << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(UnwrapAll, MatchesCopyWindowForEverySymbol) {
  constexpr std::size_t symbols = 4;
  constexpr std::size_t window = 7;
  const auto stream = golden_stream(symbols, 40, 17);
  ReturnWindows w(symbols, window, false);
  std::vector<double> arena(symbols * window);
  std::vector<double> reference(window);
  for (const auto& r : stream) {
    w.push(r);
    if (!w.ready()) continue;
    w.unwrap_all(arena.data());
    for (std::size_t i = 0; i < symbols; ++i) {
      w.copy_window(i, reference.data());
      for (std::size_t t = 0; t < window; ++t)
        ASSERT_DOUBLE_EQ(arena[i * window + t], reference[t]);
    }
  }
}

// One window of CorrelationCalculator.SplitAccessorsMatchBatchKernelsBitForBit.
void expect_split_accessors_match_batch(std::size_t window) {
  SCOPED_TRACE(::testing::Message() << "window " << window);
  constexpr std::size_t symbols = 5;
  const auto stream = golden_stream(symbols, 400, 31);

  CorrEngineConfig cfg;
  cfg.type = Ctype::combined;
  cfg.window = window;
  CorrelationCalculator calc(cfg, symbols);
  ReturnWindows mirror(symbols, window, /*track_cross_sums=*/true);
  std::vector<double> wx(window), wy(window);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  std::size_t compared = 0, constant_steps = 0;
  for (const auto& r : stream) {
    calc.push(r);
    mirror.push(r);
    if (!calc.ready()) continue;
    if (mirror.constant_window(1)) ++constant_steps;
    for (std::size_t i = 0; i < symbols; ++i) {
      for (std::size_t j = i + 1; j < symbols; ++j) {
        mirror.copy_window(i, wx.data());
        mirror.copy_window(j, wy.data());
        const double robust = maronna(wx.data(), wy.data(), window, cfg.maronna);
        const double pearson = mirror.pearson(i, j);
        ASSERT_TRUE(same_bits(calc.robust(i, j), robust))
            << "pair " << i << "," << j << " step " << compared;
        ASSERT_TRUE(same_bits(calc.pearson(i, j), pearson))
            << "pair " << i << "," << j << " step " << compared;
        ASSERT_TRUE(same_bits(calc.pair(i, j), combine(pearson, robust)))
            << "pair " << i << "," << j << " step " << compared;
      }
    }
    ++compared;
  }
  EXPECT_EQ(compared, stream.size() - window + 1);
  EXPECT_GT(constant_steps, 0u);  // the stream really drives a window constant
}

TEST(CorrelationCalculator, SplitAccessorsMatchBatchKernelsBitForBit) {
  // The cold calculator is the pipeline's and the Approach-3 series' only
  // per-pair estimator, so its accessors must be exactly the batch kernels'
  // arithmetic: robust() (seeded from per-symbol robust scales) ==
  // stats::maronna over two copy_window buffers, pearson() ==
  // ReturnWindows::pearson, and a Combined pair() == combine(pearson,
  // robust) — bit for bit, through the outlier bursts and the
  // constant-window stretch. Even and odd windows: an even median averages
  // two order statistics, an odd one reads a single one.
  expect_split_accessors_match_batch(40);
  expect_split_accessors_match_batch(41);
}

TEST(MarketCorrSeries, WarmMatchesColdWithinTolerance) {
  // End-to-end through the backtester's Approach-3 series: warm and cold
  // Maronna series agree within the tolerance contract, and Pearson series
  // are identical.
  constexpr std::size_t symbols = 4;
  const auto stream = golden_stream(symbols, 260, 19);
  // Convert the return stream into a fake BAM price matrix: prices with the
  // given log-returns.
  std::vector<std::vector<double>> bam(symbols,
                                       std::vector<double>(stream.size() + 1, 0.0));
  for (std::size_t i = 0; i < symbols; ++i) {
    bam[i][0] = 100.0;
    for (std::size_t s = 0; s < stream.size(); ++s)
      bam[i][s + 1] = bam[i][s] * std::exp(stream[s][i]);
  }

  // Window 40 keeps the 15-step outlier burst at 37.5% contamination —
  // below the bivariate M-estimator's breakdown point, where the fixed
  // point is unique. (At >=50% contamination warm and cold starts can land
  // in different, equally valid fixed points; see DESIGN.md.)
  stats::MaronnaConfig tight;
  tight.tolerance = 1e-12;
  tight.max_iterations = 2000;
  const auto cold = core::compute_market_corr_series(bam, 40, true, tight,
                                                     /*warm_maronna=*/false);
  const auto warm = core::compute_market_corr_series(bam, 40, true, tight,
                                                     /*warm_maronna=*/true);
  ASSERT_EQ(cold.maronna.size(), warm.maronna.size());
  for (std::size_t k = 0; k < cold.maronna.size(); ++k) {
    for (std::size_t s = 0; s < cold.maronna[k].size(); ++s) {
      ASSERT_NEAR(warm.maronna[k][s], cold.maronna[k][s], 1e-8)
          << "pair " << k << " step " << s;
      ASSERT_DOUBLE_EQ(warm.pearson[k][s], cold.pearson[k][s]);
    }
  }
}

}  // namespace
}  // namespace mm::stats
