// Tests for the canonical pair trading strategy state machine (§III), one
// pair at a time, including the paper's worked sizing and return examples.
#include <gtest/gtest.h>

#include <cmath>

#include "core/strategy.hpp"

namespace mm::core {
namespace {

// Small windows so scenarios stay readable: W=5, Y=3, RT=4, HP=6, ST=2.
StrategyParams test_params() {
  StrategyParams p;
  p.delta_s = 30;
  p.ctype = stats::Ctype::pearson;
  p.min_correlation = 0.1;
  p.corr_window = 10;  // informational here; corr is fed directly
  p.avg_window = 5;
  p.divergence_window = 3;
  p.divergence = 0.01;
  p.retracement = 1.0 / 3.0;
  p.spread_window = 4;
  p.max_holding = 6;
  p.no_entry_before_close = 2;
  return p;
}

constexpr std::int64_t kSmax = 60;

// One pair (legs 0 and 1) through a PairBank of one.
class OnePair {
 public:
  OnePair(const StrategyParams& params, std::int64_t smax)
      : bank_(params, smax, 2, {{0, 1}}) {}

  void step(std::int64_t s, double price_i, double price_j, double corr, bool corr_valid) {
    const double prices[2] = {price_i, price_j};
    bank_.step(s, prices, &corr, corr_valid);
  }
  void finish() { bank_.finish(); }

  bool in_position() const { return bank_.in_position(0); }
  const std::vector<Trade>& trades() const { return bank_.trades(0); }
  bool correlation_ready() const { return bank_.correlation_ready(); }
  double position_shares_i() const { return bank_.position_shares_i(0); }
  double position_shares_j() const { return bank_.position_shares_j(0); }

 private:
  PairBank bank_;
};

TEST(SizePosition, PaperExampleLongCheapLeg) {
  // "if we short i [IBM $130], and long j [MSFT $30], then x = ceil(Pi/Pj)" —
  // the paper's 5:1 MSFT:IBM example: $150 long vs $130 short.
  const auto r = size_position(130.0, 30.0, /*long_i=*/false);
  EXPECT_DOUBLE_EQ(r.shares_i, -1.0);
  EXPECT_DOUBLE_EQ(r.shares_j, 5.0);
  const double long_value = r.shares_j * 30.0;
  const double short_value = -r.shares_i * 130.0;
  EXPECT_GT(long_value, short_value);  // "just slightly on the long side"
}

TEST(SizePosition, PaperExampleLongExpensiveLeg) {
  // Long IBM, short MSFT: x = floor(130/30) = 4 -> $130 long vs $120 short.
  const auto r = size_position(130.0, 30.0, /*long_i=*/true);
  EXPECT_DOUBLE_EQ(r.shares_i, 1.0);
  EXPECT_DOUBLE_EQ(r.shares_j, -4.0);
  EXPECT_GT(r.shares_i * 130.0, -r.shares_j * 30.0);
}

TEST(SizePosition, SymmetricWhenFirstLegCheap) {
  // Same trade with legs swapped must mirror.
  const auto r = size_position(30.0, 130.0, /*long_i=*/true);
  EXPECT_DOUBLE_EQ(r.shares_i, 5.0);
  EXPECT_DOUBLE_EQ(r.shares_j, -1.0);
}

TEST(SizePosition, LongSideAlwaysAtLeastShortSide) {
  for (double pi : {10.0, 33.3, 95.0, 130.0}) {
    for (double pj : {8.0, 20.0, 60.0, 128.0}) {
      for (bool long_i : {true, false}) {
        const auto r = size_position(pi, pj, long_i);
        const double long_value =
            (r.shares_i > 0 ? r.shares_i * pi : 0) + (r.shares_j > 0 ? r.shares_j * pj : 0);
        const double short_value =
            (r.shares_i < 0 ? -r.shares_i * pi : 0) + (r.shares_j < 0 ? -r.shares_j * pj : 0);
        EXPECT_GE(long_value + 1e-9, short_value)
            << "pi=" << pi << " pj=" << pj << " long_i=" << long_i;
        // Exactly one leg long, one short.
        EXPECT_LT(r.shares_i * r.shares_j, 0.0);
      }
    }
  }
}

TEST(PairStrategy, NoTradeWithoutDivergence) {
  OnePair s(test_params(), kSmax);
  for (std::int64_t t = 0; t < kSmax; ++t) s.step(t, 100.0, 50.0, 0.9, true);
  s.finish();
  EXPECT_TRUE(s.trades().empty());
}

TEST(PairStrategy, NoTradeWhenAverageBelowThreshold) {
  OnePair s(test_params(), kSmax);
  // Average correlation 0.05 < A = 0.1; a divergence occurs but must not fire.
  for (std::int64_t t = 0; t < 20; ++t) s.step(t, 100.0, 50.0, 0.05, true);
  s.step(20, 100.0, 50.0, 0.01, true);
  for (std::int64_t t = 21; t < 30; ++t) s.step(t, 100.0, 50.0, 0.01, true);
  s.finish();
  EXPECT_TRUE(s.trades().empty());
}

TEST(PairStrategy, FreshDivergenceOpensPosition) {
  OnePair s(test_params(), kSmax);
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, 50.0, 0.9, true);
  EXPECT_FALSE(s.in_position());
  s.step(10, 100.0, 50.0, 0.5, true);  // 44% below C-bar
  EXPECT_TRUE(s.in_position());
}

TEST(PairStrategy, DirectionShortsTheOverPerformer) {
  OnePair s(test_params(), kSmax);
  // Leg i rallies into the divergence; leg j flat -> short i, long j.
  for (std::int64_t t = 0; t < 10; ++t)
    s.step(t, 100.0 + static_cast<double>(t), 50.0, 0.9, true);
  s.step(10, 110.0, 50.0, 0.5, true);
  ASSERT_TRUE(s.in_position());
  EXPECT_LT(s.position_shares_i(), 0.0);
  EXPECT_GT(s.position_shares_j(), 0.0);
}

TEST(PairStrategy, StaleDivergenceNeverFires) {
  // Divergence begins while the spread window is still warming up; by the
  // time everything is warm the streak exceeds Y, so no entry all day.
  StrategyParams p = test_params();
  p.spread_window = 20;  // warm at s=19
  OnePair s(p, kSmax);
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, 50.0, 0.9, true);
  for (std::int64_t t = 10; t < kSmax; ++t) s.step(t, 100.0, 50.0, 0.5, true);
  s.finish();
  EXPECT_TRUE(s.trades().empty());
}

TEST(PairStrategy, StRuleBlocksLateEntries) {
  StrategyParams p = test_params();
  p.no_entry_before_close = 30;
  OnePair s(p, kSmax);
  for (std::int64_t t = 0; t < 35; ++t) s.step(t, 100.0, 50.0, 0.9, true);
  // Divergence at s=35 >= smax - ST = 30: must not open.
  s.step(35, 100.0, 50.0, 0.5, true);
  EXPECT_FALSE(s.in_position());
}

TEST(PairStrategy, MaxHoldingPeriodForcesExit) {
  OnePair s(test_params(), kSmax);
  // Spread falls steadily, so the retracement level (above) is never reached.
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  ASSERT_TRUE(s.in_position());
  for (std::int64_t t = 11; t <= 16; ++t) s.step(t, 100.0, pj(t), 0.5, true);
  ASSERT_FALSE(s.in_position());
  ASSERT_EQ(s.trades().size(), 1u);
  EXPECT_EQ(s.trades()[0].exit_reason, ExitReason::max_holding);
  EXPECT_EQ(s.trades()[0].exit_interval - s.trades()[0].entry_interval, 6);
}

TEST(PairStrategy, RetracementExitAndPaperReturnExample) {
  // Engineer the paper's §III step-6 example: short 1 IBM @130, long 5 MSFT
  // @30; exit at 120/29 -> pnl $5 on a $280 basis.
  OnePair s(test_params(), kSmax);
  // IBM (leg i) rallies into the divergence so it is the over-performer.
  for (std::int64_t t = 0; t < 10; ++t)
    s.step(t, 120.0 + static_cast<double>(t), 30.0, 0.9, true);
  s.step(10, 130.0, 30.0, 0.5, true);  // entry at 130 / 30
  ASSERT_TRUE(s.in_position());
  EXPECT_DOUBLE_EQ(s.position_shares_i(), -1.0);
  EXPECT_DOUBLE_EQ(s.position_shares_j(), 5.0);

  // Spread collapses from 100 to 91 -> crosses the retracement level.
  s.step(11, 120.0, 29.0, 0.5, true);
  ASSERT_FALSE(s.in_position());
  ASSERT_EQ(s.trades().size(), 1u);
  const Trade& t = s.trades()[0];
  EXPECT_EQ(t.exit_reason, ExitReason::retracement);
  EXPECT_DOUBLE_EQ(t.pnl, 5.0);             // (130-120) - 5*(30-29)
  EXPECT_DOUBLE_EQ(t.gross_basis, 280.0);   // 1*130 + 5*30
  EXPECT_NEAR(t.trade_return, 5.0 / 280.0, 1e-12);
}

TEST(PairStrategy, EndOfDayFlattensOpenPosition) {
  OnePair s(test_params(), kSmax);
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  ASSERT_TRUE(s.in_position());
  s.finish();
  EXPECT_FALSE(s.in_position());
  ASSERT_EQ(s.trades().size(), 1u);
  EXPECT_EQ(s.trades()[0].exit_reason, ExitReason::end_of_day);
}

TEST(PairStrategy, FinishWithoutPositionIsNoOp) {
  OnePair s(test_params(), kSmax);
  s.step(0, 100.0, 50.0, 0.9, true);
  s.finish();
  EXPECT_TRUE(s.trades().empty());
}

TEST(PairStrategy, StopLossExtensionExits) {
  StrategyParams p = test_params();
  p.stop_loss = 0.02;  // 2%
  OnePair s(p, kSmax);
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);  // short i / long j? i flat, j rallying
  ASSERT_TRUE(s.in_position());
  // j was the over-performer, so we are short j, long i. j keeps rallying:
  // the position bleeds until the stop-loss trips (well before HP=6 at this
  // bleed rate it may not; force a large adverse jump).
  s.step(11, 95.0, 70.0, 0.5, true);
  ASSERT_FALSE(s.in_position());
  EXPECT_EQ(s.trades()[0].exit_reason, ExitReason::stop_loss);
  EXPECT_LT(s.trades()[0].trade_return, -0.02);
}

TEST(PairStrategy, CorrelationReversionExtensionExits) {
  StrategyParams p = test_params();
  p.correlation_reversion_exit = true;
  OnePair s(p, kSmax);
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  ASSERT_TRUE(s.in_position());
  // Correlation returns into [C-bar(1-d), C-bar]: reversion exit.
  // C-bar is slightly below 0.9 now (the 0.5 entered the mean window).
  s.step(11, 100.0, pj(11), 0.82, true);
  ASSERT_FALSE(s.in_position());
  EXPECT_EQ(s.trades()[0].exit_reason, ExitReason::correlation_reversion);
}

TEST(PairStrategy, NoInstantReentryAfterExit) {
  OnePair s(test_params(), kSmax);
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  ASSERT_TRUE(s.in_position());
  // Hold to the HP exit while the divergence persists...
  for (std::int64_t t = 11; t <= 16; ++t) s.step(t, 100.0, pj(t), 0.5, true);
  ASSERT_FALSE(s.in_position());
  // ...the still-running (now stale) divergence must not re-open.
  for (std::int64_t t = 17; t < 25; ++t) {
    s.step(t, 100.0, pj(t), 0.5, true);
    EXPECT_FALSE(s.in_position()) << "re-entered at t=" << t;
  }
}

TEST(PairStrategy, TransactionCostsReducePnl) {
  auto run_with_cost = [](double cost) {
    StrategyParams p = test_params();
    p.cost_per_share = cost;
    OnePair s(p, kSmax);
    for (std::int64_t t = 0; t < 10; ++t)
      s.step(t, 120.0 + static_cast<double>(t), 30.0, 0.9, true);
    s.step(10, 130.0, 30.0, 0.5, true);
    s.step(11, 120.0, 29.0, 0.5, true);
    return s.trades().at(0).pnl;
  };
  const double free_pnl = run_with_cost(0.0);
  const double costly_pnl = run_with_cost(0.05);
  // 6 shares x 2 sides x $0.05 = $0.60.
  EXPECT_NEAR(free_pnl - costly_pnl, 0.60, 1e-9);
}

TEST(PairStrategy, SlippageWorsensBothLegs) {
  auto run_with_slippage = [](double slip) {
    StrategyParams p = test_params();
    p.slippage_frac = slip;
    OnePair s(p, kSmax);
    for (std::int64_t t = 0; t < 10; ++t)
      s.step(t, 120.0 + static_cast<double>(t), 30.0, 0.9, true);
    s.step(10, 130.0, 30.0, 0.5, true);
    s.step(11, 120.0, 29.0, 0.5, true);
    return s.trades().at(0);
  };
  const auto clean = run_with_slippage(0.0);
  const auto slipped = run_with_slippage(0.001);
  EXPECT_LT(slipped.pnl, clean.pnl);
  // Short leg i entered lower, long leg j entered higher.
  EXPECT_LT(slipped.entry_price_i, clean.entry_price_i);
  EXPECT_GT(slipped.entry_price_j, clean.entry_price_j);
}

TEST(PairStrategy, RetracementBeatsMaxHoldingOnSameInterval) {
  // Both conditions fire at s = entry + HP; the retracement exit is checked
  // first and must win (it is the strategy's intended exit).
  OnePair s(test_params(), kSmax);
  // Falling spread into entry -> exit_when_spread_above with L above entry.
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  ASSERT_TRUE(s.in_position());
  for (std::int64_t t = 11; t <= 15; ++t) s.step(t, 100.0, pj(t), 0.5, true);
  ASSERT_TRUE(s.in_position());
  // At t=16 (HP boundary), snap the spread far above the retracement level.
  s.step(16, 100.0, 40.0, 0.5, true);
  ASSERT_EQ(s.trades().size(), 1u);
  EXPECT_EQ(s.trades()[0].exit_reason, ExitReason::retracement);
}

TEST(PairStrategy, SecondTradePossibleAfterFreshDivergence) {
  OnePair s(test_params(), kSmax);
  const auto pj = [](std::int64_t t) { return 50.0 + 0.5 * static_cast<double>(t); };
  // First cycle.
  for (std::int64_t t = 0; t < 10; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(10, 100.0, pj(10), 0.5, true);
  for (std::int64_t t = 11; t <= 16; ++t) s.step(t, 100.0, pj(t), 0.5, true);
  ASSERT_EQ(s.trades().size(), 1u);
  // Correlation recovers, averages rebuild, then a second fresh divergence.
  for (std::int64_t t = 17; t < 30; ++t) s.step(t, 100.0, pj(t), 0.9, true);
  s.step(30, 100.0, pj(30), 0.5, true);
  EXPECT_TRUE(s.in_position());
}

TEST(PairStrategy, EqualPricesUseUnitRatio) {
  // Pi == Pj: ratio 1, one share each side, long side >= short side.
  const auto r = size_position(50.0, 50.0, true);
  EXPECT_DOUBLE_EQ(r.shares_i, 1.0);
  EXPECT_DOUBLE_EQ(r.shares_j, -1.0);
}

TEST(PairStrategy, LotSizeScalesSharesNotReturns) {
  auto run_with_lot = [](double lot) {
    StrategyParams p = test_params();
    p.lot_size = lot;
    OnePair s(p, kSmax);
    for (std::int64_t t = 0; t < 10; ++t)
      s.step(t, 120.0 + static_cast<double>(t), 30.0, 0.9, true);
    s.step(10, 130.0, 30.0, 0.5, true);
    s.step(11, 120.0, 29.0, 0.5, true);
    return s.trades().at(0);
  };
  const auto unit = run_with_lot(1.0);
  const auto lots = run_with_lot(100.0);
  EXPECT_DOUBLE_EQ(lots.shares_i, unit.shares_i * 100.0);
  EXPECT_DOUBLE_EQ(lots.shares_j, unit.shares_j * 100.0);
  EXPECT_NEAR(lots.pnl, unit.pnl * 100.0, 1e-9);
  EXPECT_NEAR(lots.trade_return, unit.trade_return, 1e-12);  // scale-invariant
}

TEST(PairStrategy, InvalidCorrelationDelaysSignals) {
  OnePair s(test_params(), kSmax);
  // corr_valid=false for a long stretch: no averages build, no trades.
  for (std::int64_t t = 0; t < 30; ++t) s.step(t, 100.0, 50.0, 0.0, false);
  EXPECT_FALSE(s.correlation_ready());
  // Then the usual pattern works normally.
  for (std::int64_t t = 30; t < 40; ++t) s.step(t, 100.0, 50.0, 0.9, true);
  s.step(40, 100.0, 50.0, 0.5, true);
  EXPECT_TRUE(s.in_position());
}

}  // namespace
}  // namespace mm::core
