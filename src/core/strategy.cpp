#include "core/strategy.hpp"

#include <algorithm>
#include <cmath>

namespace mm::core {

const char* to_string(ExitReason reason) {
  switch (reason) {
    case ExitReason::retracement: return "retracement";
    case ExitReason::max_holding: return "max_holding";
    case ExitReason::end_of_day: return "end_of_day";
    case ExitReason::stop_loss: return "stop_loss";
    case ExitReason::correlation_reversion: return "correlation_reversion";
  }
  return "?";
}

ShareRatio size_position(double price_i, double price_j, bool long_i) {
  MM_ASSERT_MSG(price_i > 0.0 && price_j > 0.0, "size_position: non-positive price");
  // The paper states the rule for Pi > Pj; by symmetry we express it as: one
  // share of the higher-priced leg, x shares of the cheaper leg, with x
  // rounded *down* when the expensive leg is long (so the long side still
  // edges ahead) and *up* when the cheap leg is long.
  const bool i_expensive = price_i >= price_j;
  const double ratio = i_expensive ? price_i / price_j : price_j / price_i;
  const bool long_expensive = (long_i == i_expensive);
  const double x = long_expensive ? std::floor(ratio) : std::ceil(ratio);
  const double x_clamped = x < 1.0 ? 1.0 : x;

  double ni, nj;
  if (i_expensive) {
    ni = 1.0;
    nj = x_clamped;
  } else {
    ni = x_clamped;
    nj = 1.0;
  }
  if (!long_i) ni = -ni;
  if (long_i) nj = -nj;
  return {ni, nj};
}

namespace {
// Every 4096 pushes a running sum is rebuilt from its window.
constexpr std::uint64_t kRebuildEvery = 4096;
}  // namespace

PairBank::PairBank(const StrategyParams& params, std::int64_t smax, std::size_t symbols,
                   std::vector<stats::PairIndex> pairs)
    : params_(params), smax_(smax), symbols_(symbols), pairs_(std::move(pairs)) {
  MM_ASSERT_MSG(params.validate().has_value(), "invalid StrategyParams");
  MM_ASSERT_MSG(smax > 0, "smax must be positive");
  window_ = static_cast<std::uint64_t>(params.avg_window);
  spread_window_ = static_cast<std::uint64_t>(params.spread_window);
  depth_ = std::max(window_, spread_window_) + 1;

  const std::size_t n = pairs_.size();
  for (const auto& pr : pairs_) {
    MM_ASSERT_MSG(pr.i < symbols && pr.j < symbols, "pair leg outside the price row");
    used_symbols_.push_back(pr.i);
    used_symbols_.push_back(pr.j);
  }
  std::sort(used_symbols_.begin(), used_symbols_.end());
  used_symbols_.erase(std::unique(used_symbols_.begin(), used_symbols_.end()),
                      used_symbols_.end());

  prices_.assign(depth_ * symbols_, 0.0);
  corrs_.assign(window_ * n, 0.0);
  corr_sum_.assign(n, 0.0);
  spread_sum_.assign(n, 0.0);
  streak_.assign(n, 0);
  open_.assign(n, 0);
  exit_when_spread_above_.assign(n, 0);
  entry_s_.assign(n, 0);
  entry_price_i_.assign(n, 0.0);
  entry_price_j_.assign(n, 0.0);
  shares_i_.assign(n, 0.0);
  shares_j_.assign(n, 0.0);
  gross_basis_.assign(n, 0.0);
  retrace_level_.assign(n, 0.0);
  trades_.resize(n);
}

double PairBank::average_correlation(std::size_t k) const {
  MM_ASSERT(corr_pushes_ > 0);
  return corr_sum_[k] / static_cast<double>(std::min(corr_pushes_, window_));
}

double PairBank::average_spread(std::size_t k) const {
  MM_ASSERT(steps_ > 0);
  return spread_sum_[k] / static_cast<double>(std::min(steps_, spread_window_));
}

const std::vector<PairBank::Event>& PairBank::step(std::int64_t s, const double* prices,
                                                   const double* corr, bool corr_valid) {
  MM_ASSERT_MSG(s > last_s_, "intervals must be strictly increasing");
  for (const auto sym : used_symbols_)
    MM_ASSERT_MSG(prices[sym] > 0.0, "non-positive price");
  last_s_ = s;
  events_.clear();

  const std::uint64_t t = steps_++;
  double* now = prices_.data() + (t % depth_) * symbols_;
  std::copy(prices, prices + symbols_, now);

  // The spread leaving the RT window, recomputed from its price row.
  const double* leaving = t >= spread_window_ ? row(t - spread_window_) : nullptr;
  const bool rebuild_spread = (t + 1) % kRebuildEvery == 0;

  // C̄ over W: decisions at interval s read the mean of the W coefficients
  // before s; C(s) then replaces the oldest in slot `push % W`.
  const std::uint64_t push = corr_pushes_;
  const bool avg_ready = corr_valid && push >= window_;
  double* corr_slot = corrs_.data() + (push % window_) * size();
  const bool rebuild_corr = corr_valid && (push + 1) % kRebuildEvery == 0;
  if (corr_valid) ++corr_pushes_;

  // Entry needs W + 1 prices for the W-interval return, a full RT window, and
  // the ST rule.
  const bool warm = t >= window_ && t + 1 >= spread_window_;
  const bool may_enter = warm && s < smax_ - params_.no_entry_before_close;
  const double w = static_cast<double>(window_);
  const double keep = 1.0 - params_.divergence;

  for (std::size_t k = 0; k < size(); ++k) {
    const auto [i, j] = pairs_[k];
    const double price_i = now[i];
    const double price_j = now[j];

    double spread_sum = spread_sum_[k];
    if (leaving != nullptr) spread_sum -= leaving[i] - leaving[j];
    spread_sum += price_i - price_j;
    spread_sum_[k] = spread_sum;
    if (rebuild_spread) rebuild_spread_sum(k);

    bool fresh_divergence = false;
    double avg_corr = 0.0;
    double c = 0.0;
    if (corr_valid) {
      c = corr[k];
      if (avg_ready) {
        avg_corr = corr_sum_[k] / w;
        const bool diverged = c < avg_corr * keep;
        streak_[k] = diverged ? streak_[k] + 1 : 0;
        fresh_divergence = diverged && streak_[k] <= params_.divergence_window;
      }
      double corr_sum = corr_sum_[k];
      if (push >= window_) corr_sum -= corr_slot[k];
      corr_slot[k] = c;
      corr_sum += c;
      corr_sum_[k] = corr_sum;
      if (rebuild_corr) rebuild_corr_sum(k);
    } else {
      streak_[k] = 0;
    }

    if (open_[k] != 0) {
      check_exit(k, s, price_i, price_j, c, avg_ready, avg_corr);
      continue;
    }
    if (!fresh_divergence || avg_corr <= params_.min_correlation || !may_enter) continue;
    enter(k, s, price_i, price_j);
  }
  return events_;
}

void PairBank::rebuild_spread_sum(std::size_t k) {
  const std::uint64_t last = steps_ - 1;
  const std::uint64_t count = std::min(steps_, spread_window_);
  double sum = 0.0;
  for (std::uint64_t u = last + 1 - count; u <= last; ++u) {
    const double* r = row(u);
    sum += r[pairs_[k].i] - r[pairs_[k].j];
  }
  spread_sum_[k] = sum;
}

void PairBank::rebuild_corr_sum(std::size_t k) {
  const std::uint64_t last = corr_pushes_ - 1;
  const std::uint64_t count = std::min(corr_pushes_, window_);
  double sum = 0.0;
  for (std::uint64_t u = last + 1 - count; u <= last; ++u) sum += corr_row(u)[k];
  corr_sum_[k] = sum;
}

void PairBank::enter(std::size_t k, std::int64_t s, double price_i, double price_j) {
  const auto [i, j] = pairs_[k];
  const std::uint64_t t = steps_ - 1;

  // Direction (step 3): the over-performer has the higher W-interval return.
  const double* then = row(t - window_);
  const double ret_i = price_i / then[i] - 1.0;
  const double ret_j = price_j / then[j] - 1.0;
  const bool long_i = ret_i < ret_j;  // long the under-performer

  const auto shares = size_position(price_i, price_j, long_i);

  // Retracement level (step 5), fixed at entry from the RT-window spread;
  // its high and low come from a scan of the window's price rows.
  const double entry_spread = price_i - price_j;
  double spread_high = entry_spread;
  double spread_low = entry_spread;
  for (std::uint64_t u = t + 1 - spread_window_; u < t; ++u) {
    const double* r = row(u);
    const double spread = r[i] - r[j];
    spread_high = std::max(spread_high, spread);
    spread_low = std::min(spread_low, spread);
  }
  const double spread_avg = spread_sum_[k] / static_cast<double>(spread_window_);
  const double range = spread_high - spread_low;
  if (entry_spread <= spread_avg) {
    retrace_level_[k] = spread_low + params_.retracement * range;
    exit_when_spread_above_[k] = 1;
  } else {
    retrace_level_[k] = spread_high - params_.retracement * range;
    exit_when_spread_above_[k] = 0;
  }

  open_[k] = 1;
  entry_s_[k] = s;
  // Slippage: each leg is filled at a price worsened in the direction traded.
  const double slip = params_.slippage_frac;
  entry_price_i_[k] = price_i * (shares.shares_i > 0 ? 1.0 + slip : 1.0 - slip);
  entry_price_j_[k] = price_j * (shares.shares_j > 0 ? 1.0 + slip : 1.0 - slip);
  shares_i_[k] = shares.shares_i * params_.lot_size;
  shares_j_[k] = shares.shares_j * params_.lot_size;
  gross_basis_[k] = std::abs(shares_i_[k]) * entry_price_i_[k] +
                    std::abs(shares_j_[k]) * entry_price_j_[k];
  events_.push_back({k, true});
}

void PairBank::check_exit(std::size_t k, std::int64_t s, double price_i, double price_j,
                          double corr, bool corr_valid, double avg_corr) {
  // Retracement cross (step 5).
  const double spread = price_i - price_j;
  if (exit_when_spread_above_[k] != 0 ? spread >= retrace_level_[k]
                                      : spread <= retrace_level_[k]) {
    close_position(k, s, price_i, price_j, ExitReason::retracement);
    return;
  }

  // Optional absolute stop-loss on the mark-to-market return.
  if (params_.stop_loss > 0.0) {
    const double pnl = shares_i_[k] * (price_i - entry_price_i_[k]) +
                       shares_j_[k] * (price_j - entry_price_j_[k]);
    if (pnl / gross_basis_[k] <= -params_.stop_loss) {
      close_position(k, s, price_i, price_j, ExitReason::stop_loss);
      return;
    }
  }

  // Optional correlation reversion: C back inside [C̄(1-d), C̄].
  if (params_.correlation_reversion_exit && corr_valid) {
    if (corr >= avg_corr * (1.0 - params_.divergence) && corr <= avg_corr) {
      close_position(k, s, price_i, price_j, ExitReason::correlation_reversion);
      return;
    }
  }

  // Maximum holding period HP.
  if (s - entry_s_[k] >= params_.max_holding)
    close_position(k, s, price_i, price_j, ExitReason::max_holding);
}

void PairBank::close_position(std::size_t k, std::int64_t s, double price_i,
                              double price_j, ExitReason reason) {
  MM_ASSERT(open_[k] != 0);
  const double slip = params_.slippage_frac;
  const double shares_i = shares_i_[k], shares_j = shares_j_[k];
  // Exit fills are worsened opposite to the held direction (selling longs
  // lower, buying back shorts higher).
  const double exit_i = price_i * (shares_i > 0 ? 1.0 - slip : 1.0 + slip);
  const double exit_j = price_j * (shares_j > 0 ? 1.0 - slip : 1.0 + slip);

  Trade t;
  t.entry_interval = entry_s_[k];
  t.exit_interval = s;
  t.entry_price_i = entry_price_i_[k];
  t.entry_price_j = entry_price_j_[k];
  t.exit_price_i = exit_i;
  t.exit_price_j = exit_j;
  t.shares_i = shares_i;
  t.shares_j = shares_j;
  t.gross_basis = gross_basis_[k];
  const double costs =
      params_.cost_per_share * 2.0 * (std::abs(shares_i) + std::abs(shares_j));
  t.pnl = shares_i * (exit_i - t.entry_price_i) + shares_j * (exit_j - t.entry_price_j) -
          costs;
  t.trade_return = t.pnl / t.gross_basis;
  t.exit_reason = reason;
  trades_[k].push_back(t);
  events_.push_back({k, false});

  open_[k] = 0;
  // A divergence that is still running must not instantly re-trigger.
  streak_[k] = params_.divergence_window + 1;
}

const std::vector<PairBank::Event>& PairBank::finish() {
  events_.clear();
  if (steps_ == 0) return events_;
  const double* last = row(steps_ - 1);
  for (std::size_t k = 0; k < size(); ++k)
    if (open_[k] != 0)
      close_position(k, last_s_, last[pairs_[k].i], last[pairs_[k].j],
                     ExitReason::end_of_day);
  return events_;
}

}  // namespace mm::core
