// Golden equivalence tests for the runtime-dispatched SIMD kernels.
//
// The contract (see stats/simd.hpp) is that the scalar, AVX2 and AVX-512
// variants of every kernel are BIT-IDENTICAL: the scalar variants are
// written in lane form (four independent accumulators combined in the AVX2
// horizontal-sum order), every kernel translation unit is built with
// -ffp-contract=off, and the remaining per-element operations are
// IEEE-exact. These tests assert that across aligned, unaligned and
// remainder lengths, check that each half of the paired Maronna pass equals
// the one-pair pass, and cross-check the full-matrix Pearson path against
// the per-pair reference at n = 512. On a host or build without AVX2 the
// scalar-versus-AVX2 comparisons skip (the scalar table is still exercised
// against itself through the dispatched entry points); without AVX-512 only
// the AVX-512 comparisons skip. The paired Maronna check loops over every
// supported level, scalar included, so it runs in every build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/simd.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"

namespace mm::stats::simd {
namespace {

// Lengths straddling every dispatch regime: sub-vector, one vector, vector
// + remainder, several unrolled blocks, and large matrix-row sizes.
const std::size_t kLengths[] = {1,  2,  3,  4,   5,   7,   8,   15,  16,
                                31, 32, 61, 67, 100, 120, 128, 509, 512};

std::vector<double> make_series(std::size_t n, std::uint64_t seed,
                                bool fat_tails) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v)
    x = fat_tails ? 1e-4 * rng.student_t(3.0) : 1e-4 * rng.normal();
  return v;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  const KernelTable& scalar_ = table_for(Level::scalar);
  const KernelTable& avx2_ = table_for(Level::avx2);
};

// Scalar-versus-AVX2 comparisons have nothing to compare without AVX2.
#define MM_SKIP_WITHOUT_AVX2() \
  if (!avx2_supported()) GTEST_SKIP() << "AVX2 not available in this build/host"

TEST_F(SimdKernelsTest, PairSumsBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto x = make_series(n, 11 + n, false);
    const auto y = make_series(n, 23 + n, true);
    const auto a = scalar_.pair_sums(x.data(), y.data(), n);
    const auto b = avx2_.pair_sums(x.data(), y.data(), n);
    EXPECT_EQ(a.sx, b.sx) << "n=" << n;
    EXPECT_EQ(a.sy, b.sy) << "n=" << n;
  }
}

TEST_F(SimdKernelsTest, PairSumsBitwiseUnaligned) {
  MM_SKIP_WITHOUT_AVX2();
  // Offset the start pointer so AVX2 loads straddle cache lines.
  const auto x = make_series(515, 7, false);
  const auto y = make_series(515, 9, true);
  for (std::size_t off = 1; off <= 3; ++off) {
    const std::size_t n = 512 - off;
    const auto a = scalar_.pair_sums(x.data() + off, y.data() + off, n);
    const auto b = avx2_.pair_sums(x.data() + off, y.data() + off, n);
    EXPECT_EQ(a.sx, b.sx) << "off=" << off;
    EXPECT_EQ(a.sy, b.sy) << "off=" << off;
  }
}

TEST_F(SimdKernelsTest, CenteredSumsBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto x = make_series(n, 31 + n, true);
    const auto y = make_series(n, 41 + n, false);
    const auto s = scalar_.pair_sums(x.data(), y.data(), n);
    const double mx = s.sx / static_cast<double>(n);
    const double my = s.sy / static_cast<double>(n);
    const auto a = scalar_.centered_sums(x.data(), y.data(), n, mx, my);
    const auto b = avx2_.centered_sums(x.data(), y.data(), n, mx, my);
    EXPECT_EQ(a.sxx, b.sxx) << "n=" << n;
    EXPECT_EQ(a.syy, b.syy) << "n=" << n;
    EXPECT_EQ(a.sxy, b.sxy) << "n=" << n;
  }
}

TEST_F(SimdKernelsTest, DotBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto x = make_series(n, 51 + n, false);
    const auto y = make_series(n, 61 + n, true);
    EXPECT_EQ(scalar_.dot(x.data(), y.data(), n),
              avx2_.dot(x.data(), y.data(), n))
        << "n=" << n;
  }
}

TEST_F(SimdKernelsTest, CrossInsertBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto r = make_series(n, 71 + n, true);
    auto row_a = make_series(n, 81 + n, false);
    auto row_b = row_a;
    scalar_.cross_insert(row_a.data(), r.data(), 0.37, n);
    avx2_.cross_insert(row_b.data(), r.data(), 0.37, n);
    EXPECT_EQ(row_a, row_b) << "n=" << n;
  }
}

TEST_F(SimdKernelsTest, CrossEvictInsertBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto r = make_series(n, 91 + n, false);
    const auto old_col = make_series(n, 101 + n, true);
    auto row_a = make_series(n, 111 + n, false);
    auto row_b = row_a;
    scalar_.cross_evict_insert(row_a.data(), r.data(), old_col.data(), 0.37,
                               -0.21, n);
    avx2_.cross_evict_insert(row_b.data(), r.data(), old_col.data(), 0.37,
                             -0.21, n);
    EXPECT_EQ(row_a, row_b) << "n=" << n;
  }
}

TEST_F(SimdKernelsTest, PearsonRowBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto crow = make_series(n, 121 + n, false);
    const auto sums_j = make_series(n, 131 + n, false);
    auto vars_j = make_series(n, 141 + n, false);
    std::vector<double> degen_j(n, 0.0);
    // Mix in degenerate columns, negative variances (roundoff artifacts the
    // denom > 0 guard must absorb) and exact zeros.
    for (std::size_t k = 0; k < n; ++k) {
      vars_j[k] = std::abs(vars_j[k]);
      if (k % 7 == 3) degen_j[k] = 1.0;
      if (k % 11 == 5) vars_j[k] = -vars_j[k];
      if (k % 13 == 8) vars_j[k] = 0.0;
    }
    std::vector<double> out_a(n, -9.0), out_b(n, -9.0);
    scalar_.pearson_row(out_a.data(), crow.data(), sums_j.data(),
                        vars_j.data(), degen_j.data(), 0.83, 2.4e-7, 100.0, n);
    avx2_.pearson_row(out_b.data(), crow.data(), sums_j.data(), vars_j.data(),
                      degen_j.data(), 0.83, 2.4e-7, 100.0, n);
    EXPECT_EQ(out_a, out_b) << "n=" << n;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_GE(out_a[k], -1.0);
      EXPECT_LE(out_a[k], 1.0);
      if (degen_j[k] != 0.0) {
        EXPECT_EQ(out_a[k], 0.0);
      }
    }
  }
}

TEST_F(SimdKernelsTest, MaronnaWeightedSumsBitwise) {
  MM_SKIP_WITHOUT_AVX2();
  for (const auto n : kLengths) {
    const auto x = make_series(n, 151 + n, true);
    const auto y = make_series(n, 161 + n, true);
    // Scatter tight enough that a meaningful fraction of points exceeds the
    // Huber bound, exercising both blend arms.
    const double ixx = 4e7, ixy = 1e7, iyy = 5e7, k2 = 2.0;
    const auto a = scalar_.maronna_weighted_sums(x.data(), y.data(), n, 1e-5,
                                                 -2e-5, ixx, ixy, iyy, k2);
    const auto b = avx2_.maronna_weighted_sums(x.data(), y.data(), n, 1e-5,
                                               -2e-5, ixx, ixy, iyy, k2);
    EXPECT_EQ(a.sw, b.sw) << "n=" << n;
    EXPECT_EQ(a.swx, b.swx) << "n=" << n;
    EXPECT_EQ(a.swy, b.swy) << "n=" << n;
    EXPECT_EQ(a.sxx, b.sxx) << "n=" << n;
    EXPECT_EQ(a.sxy, b.sxy) << "n=" << n;
    EXPECT_EQ(a.syy, b.syy) << "n=" << n;
    EXPECT_GT(a.sw, 0.0);
    EXPECT_LE(a.sw, static_cast<double>(n));
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_sums(const WeightedSums& a, const WeightedSums& b,
                      const std::string& what) {
  EXPECT_TRUE(same_bits(a.sw, b.sw)) << what;
  EXPECT_TRUE(same_bits(a.swx, b.swx)) << what;
  EXPECT_TRUE(same_bits(a.swy, b.swy)) << what;
  EXPECT_TRUE(same_bits(a.sxx, b.sxx)) << what;
  EXPECT_TRUE(same_bits(a.sxy, b.sxy)) << what;
  EXPECT_TRUE(same_bits(a.syy, b.syy)) << what;
}

// The paired Maronna entry carries two independent pairs through one pass;
// at every supported level each half must equal the scalar one-pair pass bit
// for bit (scalar always; AVX2 and AVX-512 where the build and host have
// them).
// Cases: different locations and inverse scatters per half, a half with
// every point outside k² (only the divide arm), a half whose zero inverse
// scatter puts d² = 0 at every point, and a point exactly at the location.
TEST_F(SimdKernelsTest, MaronnaPairedSumsBitwise) {
  std::vector<Level> levels = {Level::scalar};
  if (avx2_supported()) levels.push_back(Level::avx2);
  if (avx512_supported()) levels.push_back(Level::avx512);
  const std::size_t kMax = 101 + 3;
  const auto xa = make_series(kMax, 171, true);
  const auto ya = make_series(kMax, 172, true);
  const auto xb = make_series(kMax, 173, false);
  const auto yb = make_series(kMax, 174, true);
  const double k2 = 2.0;
  const auto one_pass = scalar_.maronna_weighted_sums;
  const auto reference = [&](const MaronnaPass& p, std::size_t n) {
    return one_pass(p.x, p.y, n, p.mx, p.my, p.ixx, p.ixy, p.iyy, k2);
  };

  std::vector<std::size_t> lengths = {60, 100, 101};
  for (std::size_t n = 1; n <= 13; ++n) lengths.push_back(n);
  for (const auto n : lengths) {
    for (std::size_t off = 0; off <= 3; ++off) {
      const MaronnaPass a{xa.data() + off, ya.data() + off, 1e-5, -2e-5,
                          4e7, 1e7, 5e7};
      const MaronnaPass b{xb.data() + (3 - off), yb.data() + (3 - off), -3e-5,
                          1e-5, 9e7, -2e7, 3e7};
      // Every d² far above k²: the Huber weight is k²/d² at every point.
      const MaronnaPass outside{b.x, b.y, 1.0, -1.0, 4e7, 1e7, 5e7};
      // A zero inverse scatter: d² = 0 everywhere, every weight 1.
      const MaronnaPass flat{a.x, a.y, 1e-5, -2e-5, 0.0, 0.0, 0.0};
      // The location sits on the pass's first point: d² = 0 there.
      const MaronnaPass on_point{a.x, a.y, a.x[0], a.y[0], 4e7, 1e7, 5e7};
      const std::pair<MaronnaPass, MaronnaPass> cases[] = {
          {a, b}, {b, a}, {a, outside}, {outside, b}, {flat, b}, {on_point, outside}};
      for (const auto level : levels) {
        const auto paired = table_for(level).maronna_weighted_sums_pair;
        for (std::size_t c = 0; c < std::size(cases); ++c) {
          const auto& [pa, pb] = cases[c];
          const auto got = paired(pa, pb, n, k2);
          const std::string what = std::string(level_name(level)) +
                                   " n=" + std::to_string(n) + " off=" +
                                   std::to_string(off) + " case=" + std::to_string(c);
          expect_same_sums(got[0], reference(pa, n), what + " half a");
          expect_same_sums(got[1], reference(pb, n), what + " half b");
        }
      }
      if (n == 100) {
        const auto s = reference(outside, n);
        EXPECT_LT(s.sw, 1e-3);  // every point was down-weighted
        EXPECT_EQ(reference(flat, n).sw, static_cast<double>(n));
      }
    }
  }
}

// Level plumbing: the dispatched table must follow set_level / ScopedLevel.
TEST(SimdDispatch, ScopedLevelSwitchesTables) {
  const Level initial = active_level();
  {
    ScopedLevel scalar_only(Level::scalar);
    ASSERT_TRUE(scalar_only.engaged());
    EXPECT_EQ(active_level(), Level::scalar);
    EXPECT_EQ(&kernels(), &table_for(Level::scalar));
  }
  EXPECT_EQ(active_level(), initial);
  if (avx2_supported()) {
    ScopedLevel forced(Level::avx2);
    ASSERT_TRUE(forced.engaged());
    EXPECT_EQ(active_level(), Level::avx2);
    EXPECT_EQ(&kernels(), &table_for(Level::avx2));
  } else {
    EXPECT_FALSE(set_level(Level::avx2));
    EXPECT_EQ(active_level(), Level::scalar);
  }
}

TEST(SimdDispatch, TableForFallsBackToScalar) {
  if (avx2_compiled() && !avx2_supported()) {
    EXPECT_EQ(&table_for(Level::avx2), &scalar_kernels());
  }
  EXPECT_EQ(&table_for(Level::scalar), &scalar_kernels());
  EXPECT_STREQ(level_name(Level::scalar), "scalar");
  EXPECT_STREQ(level_name(Level::avx2), "avx2");
}

TEST(SimdDispatch, Avx512LevelFollowsSupport) {
  EXPECT_STREQ(level_name(Level::avx512), "avx512");
  if (!avx512_compiled()) {
    EXPECT_FALSE(avx512_supported());
  }
  if (avx512_supported()) {
    ASSERT_TRUE(avx2_supported());
    ScopedLevel forced(Level::avx512);
    ASSERT_TRUE(forced.engaged());
    EXPECT_EQ(active_level(), Level::avx512);
    EXPECT_EQ(&kernels(), &table_for(Level::avx512));
    // The AVX2 table except for the paired Maronna pass.
    const KernelTable& t512 = table_for(Level::avx512);
    const KernelTable& t2 = table_for(Level::avx2);
    EXPECT_NE(&t512, &t2);
    EXPECT_EQ(t512.maronna_weighted_sums, t2.maronna_weighted_sums);
    EXPECT_EQ(t512.pearson_row, t2.pearson_row);
    EXPECT_NE(t512.maronna_weighted_sums_pair, t2.maronna_weighted_sums_pair);
  } else {
    const Level before = active_level();
    EXPECT_FALSE(set_level(Level::avx512));
    EXPECT_EQ(active_level(), before);
    {
      ScopedLevel refused(Level::avx512);
      EXPECT_FALSE(refused.engaged());
    }
    EXPECT_EQ(active_level(), before);
    // table_for falls back to the best supported lower level.
    EXPECT_EQ(&table_for(Level::avx512), &table_for(Level::avx2));
  }
}

// End-to-end: the full-matrix Pearson at n = 512 must match the per-pair
// incremental reference bit-for-bit under BOTH levels, and the two levels
// must agree with each other (full-matrix path composes several kernels, so
// this catches ordering bugs the per-kernel tests cannot).
TEST(SimdMatrix, PearsonMatrix512MatchesPerPairReference) {
  constexpr std::size_t n = 512;
  constexpr std::size_t window = 64;
  Rng rng(2026);
  ReturnWindows windows(n, window, true);
  std::vector<double> step(n);
  for (std::size_t t = 0; t < window + 9; ++t) {  // cross the ring wrap
    for (auto& r : step) r = 1e-4 * rng.student_t(4.0);
    step[17] = 0.0;  // keep one symbol near-degenerate some steps
    windows.push(step);
  }

  SymMatrix scalar_m, simd_m;
  {
    ScopedLevel scalar_only(Level::scalar);
    ASSERT_TRUE(scalar_only.engaged());
    windows.pearson_matrix(scalar_m);
    // Per-pair reference under the same level.
    for (std::size_t i = 0; i < n; i += 37)
      for (std::size_t j = i + 1; j < n; j += 41)
        EXPECT_EQ(scalar_m(i, j), windows.pearson(i, j))
            << "(" << i << "," << j << ")";
  }
  if (!simd::avx2_supported()) GTEST_SKIP() << "AVX2 not available";
  {
    ScopedLevel forced(Level::avx2);
    ASSERT_TRUE(forced.engaged());
    windows.pearson_matrix(simd_m);
  }
  EXPECT_EQ(SymMatrix::max_abs_diff(scalar_m, simd_m), 0.0);
}

}  // namespace
}  // namespace mm::stats::simd
