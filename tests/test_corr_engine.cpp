// Tests for the market-wide correlation calculator and the pair blocks the
// correlation group node splits its work into.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "stats/corr_engine.hpp"
#include "stats/psd.hpp"

namespace mm::stats {
namespace {

// Deterministic lockstep return stream with factor structure.
std::vector<std::vector<double>> make_stream(std::size_t symbols, std::size_t steps,
                                             std::uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<std::vector<double>> stream(steps, std::vector<double>(symbols));
  for (auto& step : stream) {
    const double f = rng.normal();
    for (auto& r : step) r = 0.7 * f + rng.normal();
  }
  return stream;
}

TEST(CorrelationCalculator, NotReadyBeforeWindowFills) {
  CorrEngineConfig cfg;
  cfg.window = 10;
  CorrelationCalculator calc(cfg, 3);
  const auto stream = make_stream(3, 9, 1);
  for (const auto& r : stream) calc.push(r);
  EXPECT_FALSE(calc.ready());
  calc.push(stream[0]);
  EXPECT_TRUE(calc.ready());
}

TEST(CorrelationCalculator, MatrixHasUnitDiagonalAndSymmetry) {
  CorrEngineConfig cfg;
  cfg.window = 20;
  CorrelationCalculator calc(cfg, 4);
  for (const auto& r : make_stream(4, 50, 2)) calc.push(r);
  const auto m = calc.matrix();
  ASSERT_EQ(m.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
      EXPECT_LE(m(i, j), 1.0);
      EXPECT_GE(m(i, j), -1.0);
    }
  }
}

TEST(CorrelationCalculator, FactorStructureDetected) {
  CorrEngineConfig cfg;
  cfg.window = 200;
  CorrelationCalculator calc(cfg, 3);
  for (const auto& r : make_stream(3, 400, 3)) calc.push(r);
  // 0.7 factor load on unit noise: corr = 0.49/1.49 ~ 0.33.
  const auto m = calc.matrix();
  EXPECT_NEAR(m(0, 1), 0.33, 0.15);
  EXPECT_NEAR(m(0, 2), 0.33, 0.15);
}

class EngineCtypes : public ::testing::TestWithParam<Ctype> {};
INSTANTIATE_TEST_SUITE_P(AllTypes, EngineCtypes,
                         ::testing::Values(Ctype::pearson, Ctype::maronna,
                                           Ctype::combined));

TEST_P(EngineCtypes, PairMatchesBatchEstimator) {
  CorrEngineConfig cfg;
  cfg.type = GetParam();
  cfg.window = 30;
  CorrelationCalculator calc(cfg, 3);
  std::vector<std::vector<double>> history(3);
  for (const auto& r : make_stream(3, 100, 4)) {
    calc.push(r);
    for (std::size_t i = 0; i < 3; ++i) history[i].push_back(r[i]);
  }
  std::vector<double> x(30), y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x[i] = history[0][70 + i];
    y[i] = history[2][70 + i];
  }
  const double batch = correlation(GetParam(), x.data(), y.data(), 30, cfg.maronna);
  EXPECT_NEAR(calc.pair(0, 2), batch, 1e-9);
}

TEST(CorrelationCalculator, PsdRepairProducesPsdMaronnaMatrix) {
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 12;  // short windows + robust pairwise = likely not PSD
  CorrelationCalculator calc(cfg, 8);
  for (const auto& r : make_stream(8, 40, 5)) calc.push(r);
  EXPECT_TRUE(is_psd(nearest_psd_correlation(calc.matrix()), 1e-7));
}

// matrix_into sweeps the robust entries tile-major, 64 symbols per tile; at
// 130 symbols (three tiles a side, the last one partial) every entry must
// still be the pair's own estimate, and none may be skipped.
TEST(CorrelationCalculator, MatrixIndependentOfPairTile) {
  constexpr std::size_t symbols = 130;
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 25;
  CorrelationCalculator calc(cfg, symbols);
  for (const auto& r : make_stream(symbols, 40, 17)) calc.push(r);
  SymMatrix m(symbols, std::numeric_limits<double>::quiet_NaN());
  calc.matrix_into(m);
  for (std::size_t i = 0; i < symbols; ++i) {
    EXPECT_EQ(m(i, i), 1.0);
    for (std::size_t j = i + 1; j < symbols; ++j)
      ASSERT_EQ(m(i, j), calc.pair(i, j)) << "(" << i << "," << j << ")";
  }
}

// Blocks are contiguous, cover [0, count) exactly and differ in size by at
// most one, also when there are more members than pairs.
TEST(BlockBegin, ContiguousBalancedBlocksCoverEveryPair) {
  for (const std::size_t count : {0u, 1u, 5u, 36u, 1830u}) {
    for (const std::size_t members : {1u, 2u, 3u, 4u, 7u, 50u}) {
      ASSERT_EQ(block_begin(count, members, 0), 0u);
      ASSERT_EQ(block_begin(count, members, members), count);
      std::size_t smallest = count, largest = 0;
      for (std::size_t b = 0; b < members; ++b) {
        const std::size_t begin = block_begin(count, members, b);
        const std::size_t end = block_begin(count, members, b + 1);
        ASSERT_LE(begin, end) << "count=" << count << " members=" << members;
        smallest = std::min(smallest, end - begin);
        largest = std::max(largest, end - begin);
      }
      EXPECT_LE(largest - smallest, 1u) << "count=" << count << " members=" << members;
    }
  }
}

}  // namespace
}  // namespace mm::stats
