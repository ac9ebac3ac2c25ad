// The canonical pair trading strategy of §III, stepped for a whole bank of
// pairs at once.
//
// Feed one step per ∆s interval: every symbol's price and each pair's current
// correlation coefficient (computed elsewhere over the last M log-returns).
// For each pair the bank implements the paper's six steps:
//   1. average correlation C̄ over the last W intervals;
//   2. entry check — C̄ > A and the correlation freshly diverged more than
//      d (fraction) below C̄ within the last Y intervals;
//   3. direction — long the under-performer / short the over-performer by
//      W-interval return;
//   4. cash-neutral-but-slightly-long share ratio via the floor/ceil price
//      ratio rule;
//   5. exit — spread retracement to level L (ℓ between the RT-window spread
//      extremes, side chosen by where the entry spread sat relative to the
//      window average), a maximum holding period HP, end of day, and the
//      optional extensions (absolute stop-loss, correlation reversion);
//   6. trade return = pnl / (Pi·Ni + Pj·Nj) at entry.
//
// Interpretation note (the paper leaves this implicit): "diverged within the
// last Y intervals" is read as *freshness* — the streak of consecutive
// diverged intervals must be at most Y long, so a pair stuck in a stale
// divergence does not re-trigger all day.
//
// Layout (struct of arrays): every pair of a frame steps in one pass, so the
// state a frame touches is a few flat arrays rather than one object per pair.
//   * Per-symbol price rows, max(W, RT) + 1 deep and shared by every pair,
//     give the W-interval return, the spread leaving the RT window, and — by
//     a scan at entry only — the RT-window spread high and low.
//   * A frame-major ring of the last W correlations (one row per valid
//     frame) feeds each pair's running C̄ sum.
//   * Running sums, divergence streaks and position state sit in parallel
//     per-pair arrays.
// Each running sum keeps the arithmetic of a windowed mean: subtract the
// value leaving the window, then add the new one, and rebuild the sum from
// the window (oldest first) every 4096 pushes to cap floating-point drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::core {

enum class ExitReason : std::uint8_t {
  retracement,
  max_holding,
  end_of_day,
  stop_loss,
  correlation_reversion,
};

const char* to_string(ExitReason reason);

// A completed round trip on one pair. Shares are signed (+long / -short).
struct Trade {
  std::int64_t entry_interval = 0;
  std::int64_t exit_interval = 0;
  double entry_price_i = 0.0;
  double entry_price_j = 0.0;
  double exit_price_i = 0.0;
  double exit_price_j = 0.0;
  double shares_i = 0.0;
  double shares_j = 0.0;
  double pnl = 0.0;           // dollars, net of configured costs
  double gross_basis = 0.0;   // |Ni|·Pi + |Nj|·Pj at entry (the paper's Eq. 6 denom)
  double trade_return = 0.0;  // pnl / gross_basis
  ExitReason exit_reason = ExitReason::end_of_day;
};

class PairBank {
 public:
  // A pair that opened (`entry`) or closed a position during one step.
  struct Event {
    std::size_t pair;
    bool entry;
  };

  // `pairs` index the per-symbol price rows passed to step(), which hold
  // `symbols` prices each. `smax` is the number of intervals in the trading
  // day; the ST rule (no new positions within ST intervals of the close) is
  // enforced against it.
  PairBank(const StrategyParams& params, std::int64_t smax, std::size_t symbols,
           std::vector<stats::PairIndex> pairs);

  // Advance every pair one interval. `prices` holds each symbol's BAM at the
  // close of interval s; `corr` holds each pair's coefficient (bank order)
  // and is read only when `corr_valid`, which is false until the upstream
  // window has M returns. s must be strictly increasing across calls.
  // Returns the pairs that opened or closed a position, in pair order.
  const std::vector<Event>& step(std::int64_t s, const double* prices, const double* corr,
                                 bool corr_valid);

  // End of trading day: close every open position at the last seen prices
  // (§III step 5: "reverse all positions at the end of the trading day").
  // Returns the pairs closed, in pair order.
  const std::vector<Event>& finish();

  std::size_t size() const { return pairs_.size(); }
  const std::vector<Trade>& trades(std::size_t k) const { return trades_[k]; }
  std::vector<Trade> take_trades(std::size_t k) { return std::move(trades_[k]); }

  // Introspection for tests and for the pipeline's order emission.
  bool in_position(std::size_t k) const { return open_[k] != 0; }
  bool correlation_ready() const { return corr_pushes_ >= window_; }
  double average_correlation(std::size_t k) const;  // C̄ over the last ≤ W
  double average_spread(std::size_t k) const;       // over the last ≤ RT
  double position_shares_i(std::size_t k) const { return shares_i_[k]; }
  double position_shares_j(std::size_t k) const { return shares_j_[k]; }
  double position_entry_price_i(std::size_t k) const { return entry_price_i_[k]; }
  double position_entry_price_j(std::size_t k) const { return entry_price_j_[k]; }

 private:
  // Price row of step t (t counts steps from 0) in the per-symbol ring.
  const double* row(std::uint64_t t) const {
    return prices_.data() + (t % depth_) * symbols_;
  }
  const double* corr_row(std::uint64_t push) const {
    return corrs_.data() + (push % window_) * pairs_.size();
  }
  void enter(std::size_t k, std::int64_t s, double price_i, double price_j);
  void check_exit(std::size_t k, std::int64_t s, double price_i, double price_j,
                  double corr, bool corr_valid, double avg_corr);
  void close_position(std::size_t k, std::int64_t s, double price_i, double price_j,
                      ExitReason reason);
  void rebuild_spread_sum(std::size_t k);
  void rebuild_corr_sum(std::size_t k);

  StrategyParams params_;
  std::int64_t smax_;
  std::size_t symbols_;
  std::vector<stats::PairIndex> pairs_;
  std::uint64_t window_;         // W
  std::uint64_t spread_window_;  // RT
  std::uint64_t depth_;          // price rows kept: max(W, RT) + 1
  std::vector<std::uint32_t> used_symbols_;  // every leg, ascending, once

  // Shared rings.
  std::vector<double> prices_;  // depth_ rows of symbols_ prices
  std::vector<double> corrs_;   // window_ rows of one coefficient per pair
  std::uint64_t steps_ = 0;
  std::uint64_t corr_pushes_ = 0;
  std::int64_t last_s_ = -1;

  // Per-pair signal state.
  std::vector<double> corr_sum_;            // Σ of the C̄ window
  std::vector<double> spread_sum_;          // Σ of the RT spread window
  std::vector<std::int64_t> streak_;        // consecutive intervals below C̄(1-d)

  // Per-pair position state.
  std::vector<std::uint8_t> open_;
  std::vector<std::uint8_t> exit_when_spread_above_;  // retracement cross side
  std::vector<std::int64_t> entry_s_;
  std::vector<double> entry_price_i_, entry_price_j_;
  std::vector<double> shares_i_, shares_j_;  // signed
  std::vector<double> gross_basis_;
  std::vector<double> retrace_level_;

  std::vector<std::vector<Trade>> trades_;
  std::vector<Event> events_;
};

// Cash-neutral-but-slightly-long sizing (§III step 4). Returns signed share
// counts for legs i and j given the entry prices and which leg goes long.
struct ShareRatio {
  double shares_i;
  double shares_j;
};
ShareRatio size_position(double price_i, double price_j, bool long_i);

}  // namespace mm::core
