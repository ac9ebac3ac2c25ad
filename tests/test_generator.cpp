// Tests for the synthetic tick generator: determinism, structural validity,
// and the statistical features the pipeline depends on (sector correlation,
// injected outliers, intraday activity shape).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>

#include "marketdata/bars.hpp"
#include "marketdata/generator.hpp"
#include "stats/corr_engine.hpp"
#include "stats/pearson.hpp"

namespace mm::md {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.quote_rate = 0.3;  // keep tests fast
  return cfg;
}

TEST(UShape, ElevatedAtOpenAndClose) {
  EXPECT_GT(u_shape(0.0), u_shape(0.5));
  EXPECT_GT(u_shape(1.0), u_shape(0.5));
  EXPECT_NEAR(u_shape(0.0), u_shape(1.0), 1e-12);
  EXPECT_GT(u_shape(0.5), 0.0);
}

TEST(UShape, IntegratesToRoughlyOne) {
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += u_shape((i + 0.5) / n);
  EXPECT_NEAR(sum / n, 1.0, 1e-3);
}

TEST(SyntheticDay, DeterministicForSameSeedAndDay) {
  const auto universe = make_universe(5);
  const auto cfg = small_config();
  const SyntheticDay a(universe, cfg, 0);
  const SyntheticDay b(universe, cfg, 0);
  ASSERT_EQ(a.quotes().size(), b.quotes().size());
  for (std::size_t k = 0; k < a.quotes().size(); ++k) {
    EXPECT_EQ(a.quotes()[k].ts_ms, b.quotes()[k].ts_ms);
    EXPECT_EQ(a.quotes()[k].symbol, b.quotes()[k].symbol);
    EXPECT_DOUBLE_EQ(a.quotes()[k].bid, b.quotes()[k].bid);
    EXPECT_DOUBLE_EQ(a.quotes()[k].ask, b.quotes()[k].ask);
  }
}

TEST(SyntheticDay, DifferentDaysDiffer) {
  const auto universe = make_universe(3);
  const auto cfg = small_config();
  const SyntheticDay a(universe, cfg, 0);
  const SyntheticDay b(universe, cfg, 1);
  EXPECT_NE(a.quotes().size(), b.quotes().size());
}

TEST(SyntheticDay, QuotesTimeSortedAndInSession) {
  const auto universe = make_universe(4);
  const SyntheticDay day(universe, small_config(), 2);
  const Session session;
  TimeMs prev = 0;
  for (const auto& q : day.quotes()) {
    EXPECT_GE(q.ts_ms, prev);
    prev = q.ts_ms;
    EXPECT_TRUE(session.contains(q.ts_ms));
    EXPECT_LT(q.symbol, 4u);
  }
}

TEST(SyntheticDay, QuoteVolumeMatchesRate) {
  const auto universe = make_universe(4);
  GeneratorConfig cfg = small_config();
  cfg.quote_rate = 0.5;
  const SyntheticDay day(universe, cfg, 0);
  const double expected = 4 * 23400 * 0.5;
  EXPECT_NEAR(static_cast<double>(day.quotes().size()), expected, expected * 0.1);
}

TEST(SyntheticDay, PricePathsStayNearBasePrice) {
  const auto universe = make_universe(6);
  const SyntheticDay day(universe, small_config(), 1);
  for (SymbolId i = 0; i < 6; ++i) {
    const auto& path = day.true_path(i);
    ASSERT_EQ(path.size(), 23400u);
    for (double p : {path.front(), path[10000], path.back()}) {
      EXPECT_GT(p, universe.base_price[i] * 0.7);
      EXPECT_LT(p, universe.base_price[i] * 1.4);
    }
  }
}

TEST(SyntheticDay, CleanQuotesBracketTruePath) {
  const auto universe = make_universe(3);
  GeneratorConfig cfg = small_config();
  cfg.bad_tick_rate = 0.0;
  cfg.crossed_rate = 0.0;
  cfg.minor_tick_rate = 0.0;
  const SyntheticDay day(universe, cfg, 0);
  const Session session;
  for (const auto& q : day.quotes()) {
    EXPECT_TRUE(q.plausible());
    const auto sec = static_cast<std::size_t>((q.ts_ms - session.open_ms()) / 1000);
    const double truth = day.true_path(q.symbol)[sec];
    // BAM within ~1% of the true mid (spread + cent rounding).
    EXPECT_NEAR(q.bam(), truth, truth * 0.01);
  }
}

TEST(SyntheticDay, BadTicksInjectedAtConfiguredRate) {
  const auto universe = make_universe(4);
  GeneratorConfig cfg = small_config();
  cfg.bad_tick_rate = 0.01;
  cfg.crossed_rate = 0.002;
  cfg.minor_tick_rate = 0.0;
  const SyntheticDay day(universe, cfg, 0);
  const double rate =
      static_cast<double>(day.corrupted_count()) / static_cast<double>(day.quotes().size());
  EXPECT_NEAR(rate, 0.012, 0.004);
}

TEST(SyntheticDay, NoBadTicksWhenDisabled) {
  const auto universe = make_universe(3);
  GeneratorConfig cfg = small_config();
  cfg.bad_tick_rate = 0.0;
  cfg.crossed_rate = 0.0;
  cfg.minor_tick_rate = 0.0;
  const SyntheticDay day(universe, cfg, 0);
  EXPECT_EQ(day.corrupted_count(), 0u);
}

TEST(SyntheticDay, EpisodeIntensityHeterogeneousButStableAcrossDays) {
  // Per-symbol episode multipliers depend on (seed, symbol) only: the same
  // symbols must be divergence-rich on every day of the month.
  const auto universe = make_universe(8);
  GeneratorConfig cfg = small_config();
  // Episode drift shows up as extra idiosyncratic variance; compare the
  // true-path daily ranges across seeds/days qualitatively via quote counts
  // is too indirect — instead verify determinism: same seed => same paths.
  const SyntheticDay day_a(universe, cfg, 3);
  const SyntheticDay day_b(universe, cfg, 3);
  for (SymbolId i = 0; i < 8; ++i) {
    const auto& pa = day_a.true_path(i);
    const auto& pb = day_b.true_path(i);
    for (std::size_t t = 0; t < pa.size(); t += 997)
      ASSERT_DOUBLE_EQ(pa[t], pb[t]);
  }
}

TEST(SyntheticDay, SameSectorPairsMoreCorrelatedThanCrossSector) {
  // The factor model must make same-sector pairs the high-correlation
  // candidates the strategy hunts for. Universe of 14: 12 tech + 2 financial.
  const auto universe = make_universe(14);
  GeneratorConfig cfg = small_config();
  cfg.episodes_per_day = 0.0;  // pure factor structure
  const SyntheticDay day(universe, cfg, 0);

  const auto corr_of = [&](SymbolId a, SymbolId b) {
    const auto ra = log_returns(day.true_path(a));
    const auto rb = log_returns(day.true_path(b));
    return stats::pearson(ra, rb);
  };

  // MSFT/IBM (both tech) vs MSFT/BK (tech vs financial).
  const double same1 = corr_of(0, 1);
  const double same2 = corr_of(2, 3);
  const double cross1 = corr_of(0, 12);
  const double cross2 = corr_of(1, 13);
  EXPECT_GT(same1, cross1);
  EXPECT_GT(same2, cross2);
  EXPECT_GT(same1, 0.3);  // genuinely correlated
}

TEST(SyntheticDay, UShapedQuoteArrivals) {
  const auto universe = make_universe(5);
  GeneratorConfig cfg = small_config();
  cfg.quote_rate = 1.0;
  const SyntheticDay day(universe, cfg, 0);
  const Session session;
  // Count quotes in the first, middle and last 30 minutes.
  std::size_t open_count = 0, mid_count = 0, close_count = 0;
  const TimeMs half_hour = 30 * ms_per_minute;
  for (const auto& q : day.quotes()) {
    const TimeMs o = q.ts_ms - session.open_ms();
    if (o < half_hour) ++open_count;
    const TimeMs mid_start = session.duration_ms() / 2 - half_hour / 2;
    if (o >= mid_start && o < mid_start + half_hour) ++mid_count;
    if (o >= session.duration_ms() - half_hour) ++close_count;
  }
  EXPECT_GT(open_count, mid_count * 3 / 2);
  EXPECT_GT(close_count, mid_count * 3 / 2);
}

// FNV-1a over every field's bytes, in declaration order.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 1469598103934665603ULL;

  template <typename T>
  void add_bytes(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
  }
  void add(const Quote& q) {
    ++count;
    add_bytes(q.ts_ms);
    add_bytes(q.symbol);
    add_bytes(q.bid);
    add_bytes(q.ask);
    add_bytes(q.bid_size);
    add_bytes(q.ask_size);
  }
  void add(double value) {
    ++count;
    add_bytes(value);
  }
  bool operator==(const Digest& o) const { return count == o.count && hash == o.hash; }
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.count << ", 0x" << std::hex << d.hash << std::dec << "}";
}

Digest quote_digest(const SyntheticDay& day) {
  Digest d;
  for (const auto& q : day.quotes()) d.add(q);
  d.add_bytes(day.corrupted_count());
  return d;
}

// Goldens pin every generated quote and sampled return bit for bit: any
// change to the calibration constants, the random draw order or the cent
// rounding shows here.
TEST(GeneratorGolden, DefaultDayIsBitIdentical) {
  const SyntheticDay day(make_universe(61), GeneratorConfig{}, 0);
  EXPECT_EQ(quote_digest(day), (Digest{1142899, 0xba7ec2f578566c32}));
}

TEST(GeneratorGolden, BadTickVariantIsBitIdentical) {
  GeneratorConfig cfg;
  cfg.bad_tick_rate = 0.01;
  const SyntheticDay day(make_universe(61), cfg, 2);
  EXPECT_EQ(quote_digest(day), (Digest{1141051, 0x8180978751510628}));
}

TEST(GeneratorGolden, ReturnStreamIsBitIdentical) {
  ReturnStream stream(make_universe(61), GeneratorConfig{});
  Digest d;
  std::vector<double> r;
  for (int t = 0; t < 500; ++t) {  // crosses a day boundary
    stream.next(r);
    for (const double x : r) d.add(x);
  }
  EXPECT_EQ(d, (Digest{30500, 0x4156706bebe9d43c}));
}

TEST(ReturnStream, DeterministicAndAllocationShapeStable) {
  const auto universe = make_universe(30);
  const GeneratorConfig cfg;
  ReturnStream a(universe, cfg);
  ReturnStream b(universe, cfg);
  EXPECT_EQ(a.symbols(), 30u);
  EXPECT_EQ(a.steps_per_day(), 390u);  // 6.5h session at 60s intervals
  std::vector<double> ra, rb;
  for (int t = 0; t < 500; ++t) {  // crosses a day boundary
    a.next(ra);
    b.next(rb);
    ASSERT_EQ(ra.size(), 30u);
    ASSERT_EQ(ra, rb) << "step " << t;
  }
}

TEST(ReturnStream, ReturnsHaveSaneScale) {
  const auto universe = make_universe(61);
  GeneratorConfig cfg;
  cfg.bad_tick_rate = 0.0;
  cfg.minor_tick_rate = 0.0;
  ReturnStream stream(universe, cfg);
  std::vector<double> r;
  double sq = 0.0;
  std::size_t count = 0;
  for (int t = 0; t < 390; ++t) {
    stream.next(r);
    for (const double x : r) {
      ASSERT_TRUE(std::isfinite(x));
      sq += x * x;
      ++count;
    }
  }
  // Per-interval vol should sit near the configured per-second vols scaled
  // by sqrt(60): order 1e-3, certainly within (1e-5, 1e-1).
  const double rms = std::sqrt(sq / static_cast<double>(count));
  EXPECT_GT(rms, 1e-5);
  EXPECT_LT(rms, 1e-1);
}

TEST(ReturnStream, SectorStructureSurvivesSampling) {
  // Same-sector pairs must out-correlate cross-sector pairs in the sampled
  // returns, at builtin scale and in the synthetic extension.
  const auto universe = make_universe(120);
  GeneratorConfig cfg;
  cfg.episodes_per_day = 0.0;
  cfg.bad_tick_rate = 0.0;
  cfg.minor_tick_rate = 0.0;
  ReturnStream stream(universe, cfg);
  std::vector<std::vector<double>> history(120);
  std::vector<double> r;
  for (int t = 0; t < 780; ++t) {
    stream.next(r);
    for (std::size_t i = 0; i < r.size(); ++i) history[i].push_back(r[i]);
  }
  const auto corr_of = [&](std::size_t a, std::size_t b) {
    return stats::pearson(history[a], history[b]);
  };
  // MSFT/IBM (tech) vs MSFT/BK (tech/financial); SYN 61/62 share a synthetic
  // sector, 61/90 do not.
  EXPECT_GT(corr_of(0, 1), corr_of(0, 12));
  EXPECT_GT(corr_of(61, 62), corr_of(61, 90));
  EXPECT_GT(corr_of(0, 1), 0.3);
  EXPECT_GT(corr_of(61, 62), 0.3);
}

TEST(ReturnStream, EpisodeRichSymbolsDivergeMore) {
  // The per-symbol episode multipliers are shared with SyntheticDay, so the
  // sampled stream shows the same persistent heterogeneity: symbols with a
  // high multiplier accumulate more drift variance than the factor floor.
  const auto universe = make_universe(61);
  GeneratorConfig cfg;
  cfg.bad_tick_rate = 0.0;
  cfg.minor_tick_rate = 0.0;
  cfg.episode_drift = 0.05;  // make episodes dominate the variance
  ReturnStream with(universe, cfg);
  GeneratorConfig quiet = cfg;
  quiet.episodes_per_day = 0.0;
  ReturnStream without(universe, quiet);
  std::vector<double> r;
  double var_with = 0.0, var_without = 0.0;
  for (int t = 0; t < 780; ++t) {
    with.next(r);
    for (const double x : r) var_with += x * x;
    without.next(r);
    for (const double x : r) var_without += x * x;
  }
  EXPECT_GT(var_with, var_without * 1.5);
}

TEST(ReturnStream, FeedsCorrelationEngineAtScale) {
  // End-to-end smoke at a thousand symbols: one warm window of sampled
  // returns through the Pearson matrix path, allocation-sized buffers only.
  constexpr std::size_t n = 1000;
  const auto universe = make_universe(n);
  const GeneratorConfig cfg;
  ReturnStream stream(universe, cfg, 60.0);
  stats::CorrEngineConfig ecfg;
  ecfg.window = 30;
  stats::CorrelationCalculator calc(ecfg, n);
  std::vector<double> r;
  for (int t = 0; t < 31; ++t) {
    stream.next(r);
    calc.push(r);
  }
  ASSERT_TRUE(calc.ready());
  stats::SymMatrix m;
  calc.matrix_into(m);
  ASSERT_EQ(m.size(), n);
  for (std::size_t i = 0; i < n; i += 97) {
    EXPECT_EQ(m(i, i), 1.0);
    for (std::size_t j = i + 1; j < n; j += 131) {
      EXPECT_GE(m(i, j), -1.0);
      EXPECT_LE(m(i, j), 1.0);
    }
  }
}

}  // namespace
}  // namespace mm::md
