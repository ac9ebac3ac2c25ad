// Synthetic correlated tick data generator — the stand-in for NYSE TAQ data.
//
// The paper backtests on one month of TAQ quotes for 61 liquid stocks. TAQ is
// proprietary, so we synthesize quote streams that exhibit the features the
// MarketMiner pipeline and the pair strategy exist to handle:
//
//   * genuine cross-sectional correlation — log prices follow a market +
//     sector + idiosyncratic factor model, so same-sector pairs are highly
//     correlated (the candidates pair traders pick);
//   * short-term correlation breakdowns — Poisson-arriving "divergence
//     episodes" give one symbol a transient drift followed by a reversion,
//     producing exactly the diverge-then-recover spread dynamics the strategy
//     trades (§I, §III);
//   * intraday seasonality — U-shaped volatility and quote-arrival intensity;
//   * microstructure — proportional bid-ask spreads, discrete arrival times,
//     lot-size quote sizes;
//   * dirty data — fat-finger prints, far-out "test quotes" from electronic
//     systems, and crossed markets, at a configurable rate (§III's motivation
//     for the TCP-like filter and robust correlation).
//
// Generation is deterministic given (seed, day index, universe), so every
// experiment is reproducible and the serial baseline and the parallel engine
// consume bit-identical data.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"

namespace mm::md {

struct GeneratorConfig {
  std::uint64_t seed = 20080303;

  // Per-second sector-factor return volatility (log scale). The market and
  // idiosyncratic vols and the rest of the calibration are fixed in
  // generator.cpp.
  double sector_vol = 7e-5;

  // Mean quote arrivals per symbol per second (scaled by the U-shape).
  double quote_rate = 0.8;

  // Divergence episodes: expected episodes per symbol per day, and the total
  // drift magnitude (log scale) accumulated over an episode.
  double episodes_per_day = 3.0;
  double episode_drift = 0.012;

  // Dirty-data rates (fraction of emitted quotes).
  double bad_tick_rate = 0.002;    // fat-finger / far-out quotes
  double crossed_rate = 0.0005;    // bid > ask
  // "Minor" bad ticks: displacements small enough to slip through the
  // band filter (the residual dirt §III says the robust correlation must
  // gracefully downweight). These are what separate the three Ctype
  // treatments after cleaning.
  double minor_tick_rate = 0.01;

  Session session{};
};

// One day's synthetic market.
class SyntheticDay {
 public:
  // `day_index` selects an independent random stream (combined with seed).
  // Prices open at the universe base prices.
  SyntheticDay(const Universe& universe, const GeneratorConfig& config, int day_index);

  // All quotes of the day, time-sorted across symbols. Bad ticks are included
  // (flagged internally only through their values — consumers must clean).
  const std::vector<Quote>& quotes() const { return quotes_; }

  // The true (uncorrupted) second-resolution mid-price path for a symbol —
  // ground truth for tests and for validating the cleaning stage.
  const std::vector<double>& true_path(SymbolId symbol) const;

  // Number of quotes that were corrupted when emitted (for tests/reports).
  std::size_t corrupted_count() const { return corrupted_; }

 private:
  void build_paths(const Universe& universe, const GeneratorConfig& config, Rng& rng);
  void emit_quotes(const Universe& universe, const GeneratorConfig& config, Rng& rng);

  std::int64_t seconds_ = 0;
  Session session_;
  std::vector<std::vector<double>> paths_;  // [symbol][second] mid price
  std::vector<Quote> quotes_;
  std::size_t corrupted_ = 0;
};

// Interval-resolution synthetic return stream for universe-scale experiments.
//
// SyntheticDay materializes every quote of every symbol — right for the
// cleaning/compression stages, but at thousands of symbols one day of quotes
// is gigabytes. The correlation plane only consumes one return per symbol per
// ∆s interval, so ReturnStream generates exactly that: the same market +
// sector + idiosyncratic factor model, divergence episodes and residual
// dirty-data spikes, sampled directly at interval resolution with O(symbols)
// state and an allocation-free next(). Deterministic in (seed, universe size,
// interval). It draws its own random streams — it does not reproduce
// SyntheticDay's paths — but reuses SyntheticDay's per-symbol episode
// multipliers, so the same symbols are divergence-rich in both generators.
class ReturnStream {
 public:
  ReturnStream(const Universe& universe, const GeneratorConfig& config,
               double interval_seconds = 60.0);

  std::size_t symbols() const { return symbols_; }
  std::size_t steps_per_day() const { return steps_per_day_; }

  // Fills `out` with one log return per symbol for the next interval.
  // Allocation-free once `out` is sized (the resize is a no-op after the
  // first call). Days chain seamlessly: a fresh random stream begins every
  // steps_per_day() calls.
  void next(std::vector<double>& out);

  // Allocating convenience form.
  std::vector<double> next();

 private:
  void begin_day();

  GeneratorConfig config_;
  std::vector<int> sector_;  // per-symbol sector index (copied from universe)
  std::size_t symbols_;
  std::size_t sectors_;
  std::size_t steps_per_day_;
  double interval_seconds_;
  // Per-symbol loadings and episode multipliers: index-derived, day-stable.
  std::vector<double> beta_, gamma_, sigma_;
  std::vector<double> episode_mult_, drift_mult_;
  // Per-symbol divergence-episode state machine: `div_left_` steps of drift
  // remain, then `rev_left_` steps of the opposing reversion drift.
  std::vector<std::int32_t> div_left_, rev_left_;
  std::vector<double> step_drift_;
  // A dirty-data spike is a price-level error: a return spike this interval,
  // undone on the next. `pending_` holds next interval's correction.
  std::vector<double> pending_;
  std::vector<double> sector_shock_;  // per-step scratch
  Rng rng_{0};
  int day_ = 0;
  std::size_t step_in_day_ = 0;
};

// Intraday U-shape multiplier at session fraction x in [0,1]: elevated at the
// open and close, subdued midday. Integrates to ~1 over the session.
double u_shape(double x);

}  // namespace mm::md
