// Golden tests for the stateful correlation kernels: the calculator's split
// accessors and the blocked Pearson matrix kernel must equal the batch and
// element-wise paths bit for bit, and digests recorded from a seeded day pin
// every Maronna and Pearson value the engine produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "core/backtester.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"
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

// FNV-1a over the bytes of every value, in the order added.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis

  void add(double value) {
    ++count;
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
  }
  bool operator==(const Digest& o) const { return count == o.count && hash == o.hash; }
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.count << ", 0x" << std::hex << d.hash << std::dec << "}";
}

// Seeded 8-symbol day sampled every 60 seconds (391 BAM prices per symbol).
std::vector<std::vector<double>> golden_bam() {
  constexpr std::size_t kSymbols = 8;
  const auto universe = md::make_universe(kSymbols);
  md::GeneratorConfig cfg;
  cfg.quote_rate = 0.25;
  const md::SyntheticDay day(universe, cfg, 5);
  md::QuoteCleaner cleaner(kSymbols, md::CleanerConfig{});
  return md::sample_bam_series(cleaner.clean(day.quotes()), kSymbols, cfg.session,
                               60);
}

// The cold Maronna fixed point is pinned bit for bit: every Pearson and
// Maronna value of the Approach-3 series over all pairs, at three windows.
// The digests were recorded before the warm-start estimator was deleted, so
// they also show that the cold iterates never read warm-only state.
TEST(ColdMaronnaGolden, MarketSeriesIsBitIdentical) {
  const auto bam = golden_bam();
  const std::int64_t windows[3] = {50, 100, 200};
  const Digest expected[3] = {{19040, 0xd75d3f0dcfaf303dULL},
                              {16240, 0x4803682c13f7af0dULL},
                              {10640, 0x6132d47a333ba4fdULL}};
  for (int w = 0; w < 3; ++w) {
    const auto series = core::compute_market_corr_series(bam, windows[w], true);
    Digest d;
    for (std::size_t k = 0; k < series.pearson.size(); ++k)
      for (std::int64_t s = series.first_valid; s < series.smax; ++s) {
        const auto si = static_cast<std::size_t>(s);
        d.add(series.pearson[k][si]);
        d.add(series.maronna[k][si]);
      }
    EXPECT_EQ(d, expected[w]) << "M = " << windows[w];
  }
}

// Same for the calculator's full matrices (the tile-major robust sweep) of a
// Maronna and a Combined calculator, every 40th step of the same day.
TEST(ColdMaronnaGolden, CalculatorMatricesAreBitIdentical) {
  const auto bam = golden_bam();
  std::vector<std::vector<double>> returns;
  for (const auto& prices : bam) returns.push_back(md::log_returns(prices));
  const Ctype types[2] = {Ctype::maronna, Ctype::combined};
  const Digest expected[2] = {{196, 0x6c97eec75842860bULL},
                              {196, 0x13d29d73b0543544ULL}};
  for (int t = 0; t < 2; ++t) {
    CorrEngineConfig cfg;
    cfg.type = types[t];
    cfg.window = 100;
    CorrelationCalculator calc(cfg, bam.size());
    std::vector<double> step(bam.size());
    Digest d;
    for (std::size_t s = 0; s < returns[0].size(); ++s) {
      for (std::size_t i = 0; i < bam.size(); ++i) step[i] = returns[i][s];
      calc.push(step);
      if (!calc.ready() || s % 40 != 0) continue;
      const SymMatrix m = calc.matrix();
      for (std::size_t i = 0; i < m.size(); ++i)
        for (std::size_t j = i + 1; j < m.size(); ++j) d.add(m(i, j));
    }
    EXPECT_EQ(d, expected[t]) << "Ctype " << static_cast<int>(types[t]);
  }
}

}  // namespace
}  // namespace mm::stats
