// Contract (death) tests: API misuse must fail fast and loudly via MM_ASSERT
// rather than corrupting state. These document the hard preconditions of the
// public API.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "marketdata/bars.hpp"
#include "mpmini/serde.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"

namespace mm {
namespace {

using DeathTest = ::testing::Test;

// A PairBank of one pair (legs 0 and 1), stepped with one price row.
void step_pair(core::PairBank& bank, std::int64_t s, double price_i, double price_j) {
  const double prices[2] = {price_i, price_j};
  const double corr = 0.9;
  bank.step(s, prices, &corr, true);
}

TEST(ContractStrategy, NonIncreasingIntervalAborts) {
  core::StrategyParams p = core::ParamGrid::base();
  core::PairBank s(p, 780, 2, {{0, 1}});
  step_pair(s, 5, 100.0, 50.0);
  EXPECT_DEATH(step_pair(s, 5, 100.0, 50.0), "strictly increasing");
  EXPECT_DEATH(step_pair(s, 4, 100.0, 50.0), "strictly increasing");
}

TEST(ContractStrategy, NonPositivePriceAborts) {
  core::StrategyParams p = core::ParamGrid::base();
  core::PairBank s(p, 780, 2, {{0, 1}});
  EXPECT_DEATH(step_pair(s, 0, 0.0, 50.0), "non-positive price");
  EXPECT_DEATH(step_pair(s, 0, 100.0, -1.0), "non-positive price");
}

TEST(ContractStrategy, InvalidParamsAbortAtConstruction) {
  core::StrategyParams p = core::ParamGrid::base();
  p.retracement = 1.5;
  EXPECT_DEATH(core::PairBank(p, 780, 2, {{0, 1}}), "invalid StrategyParams");
}

TEST(ContractMetrics, TotalLossAborts) {
  EXPECT_DEATH(core::cumulative_return({-1.0}), "compounding");
  EXPECT_DEATH(core::cumulative_return({-1.5}), "compounding");
}

TEST(ContractWindows, WrongReturnCountAborts) {
  stats::ReturnWindows w(3, 5, true);
  EXPECT_DEATH(w.push({0.1, 0.2}), "one return per symbol");
}

TEST(ContractWindows, EarlyPearsonAborts) {
  stats::ReturnWindows w(2, 5, true);
  w.push({0.1, 0.2});
  EXPECT_DEATH((void)w.pearson(0, 1), "window is full");
}

TEST(ContractSymMatrix, OutOfRangeAborts) {
  stats::SymMatrix m(3, 0.0);
  EXPECT_DEATH((void)m(0, 3), "");
  EXPECT_DEATH(m.set(3, 0, 1.0), "");
}

TEST(ContractSerde, UnderrunAborts) {
  mpi::Packer packer;
  packer.put<int>(1);
  const auto bytes = packer.take();
  mpi::Unpacker u(bytes);
  (void)u.get<int>();
  EXPECT_DEATH((void)u.get<double>(), "underrun");
}

TEST(ContractSerde, WrappingVectorLengthAborts) {
  // A peer-supplied element count whose byte size wraps 64 bits (here
  // (2^61 + 1) * 8 == 8) must be rejected as an underrun, not decoded.
  mpi::Packer packer;
  packer.put<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  packer.put<double>(1.0);
  const auto bytes = packer.take();
  mpi::Unpacker u(bytes);
  EXPECT_DEATH((void)u.get_vector<double>(), "vector underrun");
}

TEST(ContractSerde, WrappingStringLengthAborts) {
  // A peer-supplied string length near 2^64 makes offset + length wrap to a
  // small value; it must be rejected as an underrun, not decoded.
  mpi::Packer packer;
  packer.put<std::uint64_t>(~std::uint64_t{0} - 3);
  packer.put<double>(1.0);
  const auto bytes = packer.take();
  mpi::Unpacker u(bytes);
  EXPECT_DEATH((void)u.get_string(), "string underrun");
}

TEST(ContractBars, LogReturnsRejectNonPositivePrices) {
  EXPECT_DEATH((void)md::log_returns({1.0, 0.0}), "non-positive price");
}

}  // namespace
}  // namespace mm
