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

}  // namespace
}  // namespace mm::stats
