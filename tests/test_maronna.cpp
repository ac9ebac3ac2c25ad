// Tests for the Maronna robust correlation estimator — the property the
// paper uses it for: agreement with Pearson on clean data, resistance to the
// outliers that destroy Pearson.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "stats/maronna.hpp"
#include "stats/pearson.hpp"
#include "stats/simd.hpp"

namespace mm::stats {
namespace {

struct CleanPair {
  std::vector<double> x, y;
  double target;
};

CleanPair make_correlated(std::size_t n, double factor_load, std::uint64_t seed) {
  mm::Rng rng(seed);
  CleanPair out;
  out.x.resize(n);
  out.y.resize(n);
  const double a = factor_load;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = rng.normal();
    out.x[i] = a * f + rng.normal();
    out.y[i] = a * f + rng.normal();
  }
  out.target = a * a / (a * a + 1.0);
  return out;
}

TEST(Maronna, AgreesWithPearsonOnCleanGaussian) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto p = make_correlated(2000, 1.2, seed);
    const double mr = maronna(p.x, p.y);
    const double pr = pearson(p.x, p.y);
    EXPECT_NEAR(mr, pr, 0.05) << "seed " << seed;
  }
}

TEST(Maronna, RecoversTargetCorrelation) {
  const auto p = make_correlated(20000, 1.0, 7);
  EXPECT_NEAR(maronna(p.x, p.y), 0.5, 0.03);
}

TEST(Maronna, PerfectCorrelationDegenerate) {
  std::vector<double> x(50), y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = static_cast<double>(i) * 0.1 - 2.0;
    y[i] = 3.0 * x[i] + 1.0;
  }
  EXPECT_NEAR(maronna(x, y), 1.0, 0.05);
}

TEST(Maronna, ResistsOutliersThatDestroyPearson) {
  auto p = make_correlated(100, 2.0, 11);
  const double clean_m = maronna(p.x, p.y);
  const double clean_p = pearson(p.x, p.y);
  EXPECT_GT(clean_p, 0.7);

  // Contaminate 5% of points with adversarial (anti-correlated, huge) values.
  for (std::size_t i = 0; i < p.x.size(); i += 20) {
    p.x[i] = 50.0;
    p.y[i] = -50.0;
  }
  const double dirty_m = maronna(p.x, p.y);
  const double dirty_p = pearson(p.x, p.y);

  EXPECT_LT(dirty_p, 0.0);                       // Pearson wrecked
  EXPECT_GT(dirty_m, 0.55);                      // Maronna holds
  EXPECT_LT(std::abs(dirty_m - clean_m), 0.25);  // close to its clean value
}

TEST(Maronna, SingleFatFingerBarelyMoves) {
  auto p = make_correlated(100, 2.0, 13);
  const double clean = maronna(p.x, p.y);
  p.x[50] = 1000.0;
  p.y[50] = -1000.0;
  EXPECT_NEAR(maronna(p.x, p.y), clean, 0.1);
}

TEST(Maronna, ZeroDispersionReturnsZero) {
  const std::vector<double> c(20, 1.5);
  EXPECT_DOUBLE_EQ(maronna(c, c), 0.0);
}

TEST(Maronna, ReportsConvergence) {
  const auto p = make_correlated(500, 1.0, 17);
  const auto result = maronna_estimate(p.x.data(), p.y.data(), p.x.size());
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0);
  EXPECT_LE(result.iterations, 50);
  EXPECT_GT(result.scatter_xx, 0.0);
  EXPECT_GT(result.scatter_yy, 0.0);
}

TEST(Maronna, LocationEstimateIsRobust) {
  mm::Rng rng(19);
  std::vector<double> x(200), y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x[i] = 5.0 + rng.normal();
    y[i] = -3.0 + rng.normal();
  }
  x[0] = 1e4;  // location outlier
  const auto result = maronna_estimate(x.data(), y.data(), x.size());
  EXPECT_NEAR(result.location_x, 5.0, 0.5);
  EXPECT_NEAR(result.location_y, -3.0, 0.5);
}

TEST(Maronna, BoundedOutput) {
  mm::Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(30), y(30);
    for (std::size_t i = 0; i < 30; ++i) {
      x[i] = rng.student_t(3.0);
      y[i] = rng.student_t(3.0);
    }
    const double r = maronna(x, y);
    EXPECT_GE(r, -1.0);
    EXPECT_LE(r, 1.0);
  }
}

class MaronnaWindowSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(PaperWindows, MaronnaWindowSizes,
                         ::testing::Values<std::size_t>(50, 100, 200));

TEST_P(MaronnaWindowSizes, StableAcrossPaperWindowLengths) {
  // Table I's M values: the estimator must behave on every window size the
  // grid uses.
  const auto p = make_correlated(GetParam(), 1.5, 29);
  const double r = maronna(p.x, p.y);
  EXPECT_GT(r, 0.4);
  EXPECT_LE(r, 1.0);
}

TEST(Maronna, ScratchOverloadMatchesConvenienceBitwise) {
  // The scratch-taking overload is the same algorithm routed through reused
  // buffers; it must agree with the allocating convenience form bit-for-bit,
  // including when the scratch arrives oversized from a previous larger pair.
  MaronnaScratch scratch;
  scratch.values.resize(4096);
  scratch.dev.resize(4096);
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto p = make_correlated(100, 1.2, seed);
    const auto a = maronna_estimate(p.x.data(), p.y.data(), p.x.size());
    const auto b =
        maronna_estimate(p.x.data(), p.y.data(), p.x.size(), {}, scratch);
    EXPECT_EQ(a.correlation, b.correlation) << "seed " << seed;
    EXPECT_EQ(a.scatter_xx, b.scatter_xx);
    EXPECT_EQ(a.scatter_xy, b.scatter_xy);
    EXPECT_EQ(a.scatter_yy, b.scatter_yy);
    EXPECT_EQ(a.location_x, b.location_x);
    EXPECT_EQ(a.location_y, b.location_y);
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_bitwise_equal(const MaronnaResult& a, const MaronnaResult& b,
                          const char* what) {
  EXPECT_TRUE(same_bits(a.correlation, b.correlation)) << what;
  EXPECT_TRUE(same_bits(a.location_x, b.location_x)) << what;
  EXPECT_TRUE(same_bits(a.location_y, b.location_y)) << what;
  EXPECT_TRUE(same_bits(a.scatter_xx, b.scatter_xx)) << what;
  EXPECT_TRUE(same_bits(a.scatter_xy, b.scatter_xy)) << what;
  EXPECT_TRUE(same_bits(a.scatter_yy, b.scatter_yy)) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
}

TEST(Maronna, ScaleSeededStartMatchesPairwiseBitwise) {
  // The calculator computes each symbol's robust_scale once per step and
  // starts every cold pair from it. That must be the pairwise cold start
  // exactly: same medians/MADs, same floors, same early return — whatever
  // order the sample arrives in (the scales here come from reversed copies).
  for (std::size_t n : {100u, 101u}) {
    const auto gauss = make_correlated(n, 1.2, 71);
    auto burst = make_correlated(n, 1.2, 72);
    for (std::size_t i = 10; i < 16; ++i) {
      burst.x[i] = (i % 2 == 0 ? 40.0 : -40.0);
      burst.y[i] = (i % 2 == 0 ? -40.0 : 40.0);
    }
    // A strict majority of one value: MAD zero although not constant, so the
    // cold start engages its dispersion floor on that side.
    auto majority = make_correlated(n, 1.2, 73);
    for (std::size_t i = 0; i <= n / 2; ++i) majority.x[i] = 0.25;
    // Both sides flat: the early return with correlation 0.
    CleanPair flat{std::vector<double>(n, 1e-4), std::vector<double>(n, -3e-4), 0.0};

    const std::pair<const char*, const CleanPair*> cases[] = {
        {"gaussian", &gauss}, {"outlier burst", &burst},
        {"majority side", &majority}, {"both flat", &flat}};
    MaronnaScratch scratch;
    for (const auto& [what, p] : cases) {
      const std::vector<double> rx(p->x.rbegin(), p->x.rend());
      const std::vector<double> ry(p->y.rbegin(), p->y.rend());
      const RobustScale sx = robust_scale(rx.data(), n, scratch);
      const RobustScale sy = robust_scale(ry.data(), n, scratch);
      const auto pairwise =
          maronna_estimate(p->x.data(), p->y.data(), n, {}, scratch);
      const auto seeded = maronna_estimate(p->x.data(), p->y.data(), n, sx, sy, {});
      expect_bitwise_equal(seeded, pairwise, what);
      if (p == &majority) {
        EXPECT_EQ(sx.mad, 0.0);
        EXPECT_GT(seeded.scatter_xx, 0.0);  // the floor kept the map defined
      }
      if (p == &flat) {
        EXPECT_EQ(seeded.correlation, 0.0);
        EXPECT_EQ(seeded.iterations, 0);
      }
    }
  }
}

TEST(Maronna, BatchMatchesPairwiseBitwise) {
  // maronna_correlations runs two pairs per pass and refills a slot as soon
  // as its pair exits; every value must still equal the one-pair estimate.
  // The arena mixes pairs that leave by each exit, and the configs below
  // move the exits around: convergence, both MADs zero (no pass), one MAD
  // zero (floored scatter), a singular scatter (identical samples),
  // max_iterations (3, and 0 for no pass at all) and no weight left
  // (k² = 0 at even n, where no point sits on both medians).
  constexpr std::size_t kSymbols = 9;
  std::vector<simd::Level> levels = {simd::Level::scalar};
  if (simd::avx2_supported()) levels.push_back(simd::Level::avx2);
  if (simd::avx512_supported()) levels.push_back(simd::Level::avx512);
  MaronnaConfig three_passes;
  three_passes.max_iterations = 3;
  MaronnaConfig no_passes;
  no_passes.max_iterations = 0;
  MaronnaConfig no_weight;
  no_weight.huber_k2 = 0.0;
  const std::pair<const char*, MaronnaConfig> configs[] = {
      {"default", {}}, {"3 passes", three_passes}, {"0 passes", no_passes},
      {"k2 = 0", no_weight}};

  for (std::size_t n : {100u, 101u}) {
    const auto a = make_correlated(n, 1.2, 81);
    const auto b = make_correlated(n, 0.4, 82);
    auto burst = make_correlated(n, 1.2, 83);
    for (std::size_t i = 10; i < 16; ++i) burst.x[i] = (i % 2 == 0 ? 40.0 : -40.0);
    auto majority = a.y;
    for (std::size_t i = 0; i <= n / 2; ++i) majority[i] = 0.25;
    const std::vector<std::vector<double>> windows = {
        a.x, a.y, b.x, b.y, burst.x,
        majority,                      // 5: MAD zero, not constant
        std::vector<double>(n, 1e-4),  // 6: flat
        std::vector<double>(n, -3e-4),  // 7: flat
        a.x};                          // 8: a copy of symbol 0
    std::vector<double> arena;
    std::vector<RobustScale> scales;
    MaronnaScratch scratch;
    for (const auto& w : windows) {
      arena.insert(arena.end(), w.begin(), w.end());
      scales.push_back(robust_scale(w.data(), n, scratch));
    }
    const auto window = [&](std::size_t s) { return arena.data() + s * n; };

    // Batches: every prefix length 0..4 of the canonical order, an odd
    // middle slice, the whole list and the whole list reversed.
    const auto all = all_pairs(kSymbols);
    const std::vector<PairIndex> reversed(all.rbegin(), all.rend());
    std::vector<std::pair<const PairIndex*, std::size_t>> batches;
    for (std::size_t c = 0; c <= 4; ++c) batches.push_back({all.data(), c});
    batches.push_back({all.data() + 5, 17});
    batches.push_back({all.data(), all.size()});
    batches.push_back({reversed.data(), reversed.size()});

    for (const auto level : levels) {
      const simd::ScopedLevel scoped(level);
      ASSERT_TRUE(scoped.engaged());
      for (const auto& [config_name, config] : configs) {
        for (const auto& [pairs, count] : batches) {
          std::vector<double> out(count + 1, -7.0);
          maronna_correlations(arena.data(), scales.data(), n, pairs, count, config,
                               out.data());
          for (std::size_t k = 0; k < count; ++k) {
            const auto [i, j] = pairs[k];
            const auto ref = maronna_estimate(window(i), window(j), n, scales[i],
                                              scales[j], config);
            EXPECT_TRUE(same_bits(out[k], ref.correlation))
                << simd::level_name(level) << " " << config_name << " n=" << n
                << " count=" << count << " pair (" << i << "," << j << "): "
                << out[k] << " vs " << ref.correlation;
          }
          EXPECT_EQ(out[count], -7.0) << "wrote past the batch";
        }
      }
    }

    // The arena does reach each exit.
    const auto estimate = [&](std::size_t i, std::size_t j, const MaronnaConfig& c) {
      return maronna_estimate(window(i), window(j), n, scales[i], scales[j], c);
    };
    EXPECT_TRUE(estimate(0, 1, {}).converged);
    EXPECT_EQ(estimate(6, 7, {}).iterations, 0);        // both MADs zero
    EXPECT_EQ(scales[5].mad, 0.0);                      // one MAD zero
    EXPECT_GT(estimate(0, 5, {}).iterations, 0);
    const auto singular = estimate(0, 8, {});           // det <= 0 after a pass
    EXPECT_EQ(singular.iterations, 1);
    EXPECT_FALSE(singular.converged);
    EXPECT_EQ(estimate(0, 1, three_passes).iterations, 3);
    EXPECT_FALSE(estimate(0, 1, three_passes).converged);
    EXPECT_EQ(estimate(0, 1, no_passes).iterations, 0);
    if (n % 2 == 0) {
      EXPECT_EQ(estimate(0, 1, no_weight).iterations, 0);  // sw <= 0
    }
  }
}

}  // namespace
}  // namespace mm::stats
