#include "marketdata/generator.hpp"

#include <algorithm>
#include <cmath>

namespace mm::md {
namespace {

// Calibration of the factor model. Per-second return volatilities (log
// scale): a daily vol of ~2% over 23400 s corresponds to ~1.3e-4 per second.
// The sector vol is GeneratorConfig::sector_vol.
constexpr double kMarketVol = 6e-5;
constexpr double kIdioVol = 8e-5;
// Student-t degrees of freedom for idiosyncratic shocks (fat tails).
constexpr double kIdioTailDf = 5.0;

// Half-spread as a fraction of price.
constexpr double kHalfSpreadFrac = 4e-4;
// Microstructure noise: each quote's mid is displaced from the true path by
// N(0, kQuoteNoiseFrac) (bid-ask bounce, quote flicker). This is what keeps
// the cleaning filter's adaptive band realistically wide.
constexpr double kQuoteNoiseFrac = 3e-4;

// Divergence episode length bounds.
constexpr double kEpisodeMinMinutes = 4.0;
constexpr double kEpisodeMaxMinutes = 15.0;
// Fraction of the episode drift that reverts afterwards (1 = full
// mean-reversion; the strategy profits from the reverting part).
constexpr double kEpisodeReversion = 0.85;
// Per-symbol episode-intensity multiplier: lognormal, exp(N(0, sigma)),
// scaled by the median, clamped to [min, max]. Deterministic in seed+symbol
// and constant across days, so a few symbols are persistently
// divergence-rich: their pairs compound outsized monthly returns, producing
// the heavy right tail of the paper's cross-pair distributions (Fig. 2).
constexpr double kEpisodeMultSigma = 0.8;
constexpr double kEpisodeMultMedian = 0.9;
constexpr double kEpisodeMultMin = 0.1;
constexpr double kEpisodeMultMax = 6.0;
// Per-symbol episode drift-magnitude multiplier (same lognormal mechanism).
// Intensity x magnitude — a product of lognormals — is what produces the
// strongly right-skewed, leptokurtic cross-pair return distribution of
// Tables III/IV.
constexpr double kEpisodeDriftSigma = 0.5;
constexpr double kEpisodeDriftMultMin = 0.3;
constexpr double kEpisodeDriftMultMax = 4.0;

// Magnitude ranges of bad prints, as a fraction of price: far-out ticks the
// band filter catches, and minor ones that slip through it.
constexpr double kBadTickMinJump = 0.05;
constexpr double kBadTickMaxJump = 0.6;
constexpr double kMinorTickMinJump = 0.0005;
constexpr double kMinorTickMaxJump = 0.0025;

// Symbol i's episode-intensity and drift-magnitude multipliers, drawn from a
// stream seeded by (seed, i) alone: constant across days, and shared by both
// generators, so the same symbols are divergence-rich in each.
struct EpisodeMultipliers {
  double intensity;
  double drift;
};

EpisodeMultipliers episode_multipliers(std::uint64_t seed, std::size_t i) {
  std::uint64_t sm = seed ^ (0xa24baed4963ee407ULL * (i + 1));
  Rng symbol_rng(splitmix64(sm));
  const double intensity =
      std::clamp(kEpisodeMultMedian * std::exp(kEpisodeMultSigma * symbol_rng.normal()),
                 kEpisodeMultMin, kEpisodeMultMax);
  const double drift = std::clamp(std::exp(kEpisodeDriftSigma * symbol_rng.normal()),
                                  kEpisodeDriftMultMin, kEpisodeDriftMultMax);
  return {intensity, drift};
}

}  // namespace

double u_shape(double x) {
  // Quadratic smile normalized to integrate to ~1 on [0,1]:
  // u(x) = a + b(2x-1)^2 with a + b/3 = 1.
  constexpr double b = 1.8;
  constexpr double a = 1.0 - b / 3.0;
  const double t = 2.0 * x - 1.0;
  return a + b * t * t;
}

SyntheticDay::SyntheticDay(const Universe& universe, const GeneratorConfig& config,
                           int day_index)
    : seconds_(config.session.duration_seconds()), session_(config.session) {
  // Independent stream per (seed, day): expand via splitmix64.
  std::uint64_t sm = config.seed;
  (void)splitmix64(sm);
  sm ^= 0x51ed2700b1a3c492ULL * static_cast<std::uint64_t>(day_index + 1);
  Rng rng(splitmix64(sm));

  build_paths(universe, config, rng);
  emit_quotes(universe, config, rng);
}

void SyntheticDay::build_paths(const Universe& universe, const GeneratorConfig& config,
                               Rng& rng) {
  const auto n = universe.table.size();
  const auto n_sectors = universe.sector_names.size();
  const auto steps = static_cast<std::size_t>(seconds_);

  paths_.assign(n, std::vector<double>(steps));

  // Per-symbol factor loadings: stable but heterogeneous, derived from the
  // rng so different universes differ.
  std::vector<double> beta(n), gamma(n), sigma(n);
  for (std::size_t i = 0; i < n; ++i) {
    beta[i] = 0.8 + 0.4 * rng.uniform();   // market loading in [0.8, 1.2]
    gamma[i] = 0.8 + 0.4 * rng.uniform();  // sector loading
    sigma[i] = 0.75 + 0.5 * rng.uniform(); // idio vol multiplier
  }

  // Divergence episodes: piecewise drift per symbol per second. Episode
  // intensity is heterogeneous across symbols but constant across days, so
  // the same pairs stay divergence-rich all month.
  std::vector<std::vector<double>> drift(n, std::vector<double>(steps, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    const EpisodeMultipliers mult = episode_multipliers(config.seed, i);
    const double expected = config.episodes_per_day * mult.intensity;
    // Poisson count via sequential Bernoulli thinning over minutes.
    int episodes = 0;
    {
      // Knuth's method, bounded to avoid pathological configs.
      const double l = std::exp(-expected);
      double p = 1.0;
      while (episodes < 40) {
        p *= rng.uniform();
        if (p <= l) break;
        ++episodes;
      }
    }
    for (int e = 0; e < episodes; ++e) {
      const double minutes = rng.uniform(kEpisodeMinMinutes, kEpisodeMaxMinutes);
      const auto len = static_cast<std::size_t>(minutes * 60.0);
      if (len == 0 || 2 * len >= steps) continue;
      const auto start = static_cast<std::size_t>(rng.uniform_int(steps - 2 * len));
      const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
      const double per_second =
          sign * config.episode_drift * mult.drift / static_cast<double>(len);
      const double reversion =
          -per_second * kEpisodeReversion;  // opposite drift afterwards
      for (std::size_t t = 0; t < len; ++t) drift[i][start + t] += per_second;
      for (std::size_t t = 0; t < len; ++t) drift[i][start + len + t] += reversion;
    }
  }

  std::vector<double> log_price(n);
  for (std::size_t i = 0; i < n; ++i) {
    MM_ASSERT_MSG(universe.base_price[i] > 0.0, "base price must be positive");
    log_price[i] = std::log(universe.base_price[i]);
  }

  std::vector<double> sector_shock(n_sectors);
  for (std::size_t t = 0; t < steps; ++t) {
    const double u = u_shape(static_cast<double>(t) / static_cast<double>(steps));
    const double scale = std::sqrt(u);
    const double market = kMarketVol * scale * rng.normal();
    for (std::size_t g = 0; g < n_sectors; ++g)
      sector_shock[g] = config.sector_vol * scale * rng.normal();
    for (std::size_t i = 0; i < n; ++i) {
      const double idio = kIdioVol * sigma[i] * scale * rng.student_t(kIdioTailDf) /
                          std::sqrt(kIdioTailDf / (kIdioTailDf - 2.0));
      log_price[i] += beta[i] * market +
                      gamma[i] * sector_shock[static_cast<std::size_t>(
                                     universe.sector[i])] +
                      idio + drift[i][t];
      paths_[i][t] = std::exp(log_price[i]);
    }
  }
}

void SyntheticDay::emit_quotes(const Universe& universe, const GeneratorConfig& config,
                               Rng& rng) {
  const auto n = universe.table.size();
  const auto steps = static_cast<std::size_t>(seconds_);
  quotes_.clear();
  // Expected total quotes: n * seconds * rate — reserve to avoid regrowth.
  quotes_.reserve(static_cast<std::size_t>(static_cast<double>(n * steps) *
                                           config.quote_rate * 1.1) + 64);

  for (SymbolId i = 0; i < n; ++i) {
    // Poisson arrivals via exponential gaps, with intensity modulated by the
    // U-shape (thinning): draw at peak intensity, accept with u(t)/u_max.
    const double u_max = std::max(u_shape(0.0), 1.0);
    const double peak_rate = config.quote_rate * u_max;
    double t = rng.exponential(peak_rate);
    while (t < static_cast<double>(seconds_)) {
      const double x = t / static_cast<double>(seconds_);
      if (rng.uniform() < u_shape(x) / u_max) {
        const auto sec = std::min(static_cast<std::size_t>(t), steps - 1);
        const double mid =
            paths_[i][sec] * (1.0 + kQuoteNoiseFrac * rng.normal());
        const double half_spread =
            std::max(0.01 / 2.0, mid * kHalfSpreadFrac);  // >= 1 cent wide

        Quote q;
        q.ts_ms = session_.open_ms() + static_cast<TimeMs>(t * 1000.0);
        q.symbol = i;
        q.bid = mid - half_spread;
        q.ask = mid + half_spread;
        q.bid_size = 1 + static_cast<std::int32_t>(rng.uniform_int(40));
        q.ask_size = 1 + static_cast<std::int32_t>(rng.uniform_int(40));

        // Dirty data injection.
        if (rng.bernoulli(config.bad_tick_rate)) {
          const double jump = rng.uniform(kBadTickMinJump, kBadTickMaxJump);
          const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
          if (rng.bernoulli(0.5)) {
            // Fat-finger: both sides displaced.
            q.bid *= 1.0 + sign * jump;
            q.ask *= 1.0 + sign * jump;
          } else {
            // Far-out limit / test quote on one side.
            if (sign > 0)
              q.ask *= 1.0 + jump * 4.0;
            else
              q.bid *= 1.0 - std::min(0.95, jump * 4.0);
          }
          ++corrupted_;
        } else if (rng.bernoulli(config.crossed_rate)) {
          std::swap(q.bid, q.ask);  // crossed market
          ++corrupted_;
        } else if (rng.bernoulli(config.minor_tick_rate)) {
          // Small displacement that typically survives the band filter; the
          // robust correlation is what defends against these.
          const double jump = rng.uniform(kMinorTickMinJump, kMinorTickMaxJump);
          const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
          q.bid *= 1.0 + sign * jump;
          q.ask *= 1.0 + sign * jump;
          ++corrupted_;
        }

        // Round to cents like real quote feeds.
        q.bid = std::max(0.01, std::round(q.bid * 100.0) / 100.0);
        q.ask = std::max(0.01, std::round(q.ask * 100.0) / 100.0);
        quotes_.push_back(q);
      }
      t += rng.exponential(peak_rate);
    }
  }

  std::stable_sort(quotes_.begin(), quotes_.end(),
                   [](const Quote& a, const Quote& b) { return a.ts_ms < b.ts_ms; });
}

const std::vector<double>& SyntheticDay::true_path(SymbolId symbol) const {
  MM_ASSERT(symbol < paths_.size());
  return paths_[symbol];
}

ReturnStream::ReturnStream(const Universe& universe, const GeneratorConfig& config,
                           double interval_seconds)
    : config_(config),
      sector_(universe.sector),
      symbols_(universe.table.size()),
      sectors_(universe.sector_names.size()),
      interval_seconds_(interval_seconds) {
  MM_ASSERT_MSG(interval_seconds > 0.0, "interval must be positive");
  const auto duration = static_cast<double>(config.session.duration_seconds());
  steps_per_day_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(duration / interval_seconds));

  beta_.resize(symbols_);
  gamma_.resize(symbols_);
  sigma_.resize(symbols_);
  episode_mult_.resize(symbols_);
  drift_mult_.resize(symbols_);
  for (std::size_t i = 0; i < symbols_; ++i) {
    // Loadings come from a per-symbol stream (distinct constant from every
    // other stream in this file), so they are stable across days and across
    // universe sizes — growing n leaves the first symbols' dynamics intact.
    std::uint64_t sm =
        config.seed ^ 0x6a09e667f3bcc909ULL ^ (0xbf58476d1ce4e5b9ULL * (i + 1));
    Rng loading_rng(splitmix64(sm));
    beta_[i] = 0.8 + 0.4 * loading_rng.uniform();
    gamma_[i] = 0.8 + 0.4 * loading_rng.uniform();
    sigma_[i] = 0.75 + 0.5 * loading_rng.uniform();
    const EpisodeMultipliers mult = episode_multipliers(config.seed, i);
    episode_mult_[i] = mult.intensity;
    drift_mult_[i] = mult.drift;
  }

  div_left_.assign(symbols_, 0);
  rev_left_.assign(symbols_, 0);
  step_drift_.assign(symbols_, 0.0);
  pending_.assign(symbols_, 0.0);
  sector_shock_.resize(sectors_);
  begin_day();
}

void ReturnStream::begin_day() {
  // SyntheticDay's per-day seeding idiom, displaced by one extra constant so
  // the two generators never share a stream for the same (seed, day).
  std::uint64_t sm = config_.seed;
  (void)splitmix64(sm);
  sm ^= 0x51ed2700b1a3c492ULL * static_cast<std::uint64_t>(day_ + 1);
  sm ^= 0x94d049bb133111ebULL;
  rng_.reseed(splitmix64(sm));
}

void ReturnStream::next(std::vector<double>& out) {
  if (step_in_day_ == steps_per_day_) {
    step_in_day_ = 0;
    ++day_;
    begin_day();
  }
  out.resize(symbols_);

  // Interval variance scales with interval length and the intraday smile at
  // the interval's midpoint.
  const double x = (static_cast<double>(step_in_day_) + 0.5) /
                   static_cast<double>(steps_per_day_);
  const double scale = std::sqrt(u_shape(x) * interval_seconds_);
  const double t_norm = std::sqrt(kIdioTailDf / (kIdioTailDf - 2.0));
  const double start_p =
      std::min(1.0, config_.episodes_per_day /
                        static_cast<double>(steps_per_day_));

  const double market = kMarketVol * scale * rng_.normal();
  for (std::size_t g = 0; g < sectors_; ++g)
    sector_shock_[g] = config_.sector_vol * scale * rng_.normal();

  for (std::size_t i = 0; i < symbols_; ++i) {
    const double idio =
        kIdioVol * sigma_[i] * scale * rng_.student_t(kIdioTailDf) / t_norm;

    // Divergence episodes: a transient per-step drift followed by a
    // reversion drift of the opposite sign over the same length (the same
    // diverge-then-recover shape SyntheticDay injects into its paths).
    if (div_left_[i] == 0 && rev_left_[i] == 0 &&
        rng_.bernoulli(std::min(1.0, start_p * episode_mult_[i]))) {
      const double minutes = rng_.uniform(kEpisodeMinMinutes, kEpisodeMaxMinutes);
      const auto len = std::max<std::int32_t>(
          1, static_cast<std::int32_t>(minutes * 60.0 / interval_seconds_));
      const double sign = rng_.bernoulli(0.5) ? 1.0 : -1.0;
      div_left_[i] = len;
      rev_left_[i] = len;
      step_drift_[i] = sign * config_.episode_drift * drift_mult_[i] /
                       static_cast<double>(len);
    }
    double drift = 0.0;
    if (div_left_[i] > 0) {
      drift = step_drift_[i];
      if (--div_left_[i] == 0) step_drift_[i] *= -kEpisodeReversion;
    } else if (rev_left_[i] > 0) {
      drift = step_drift_[i];
      --rev_left_[i];
    }

    double r = beta_[i] * market +
               gamma_[i] * sector_shock_[static_cast<std::size_t>(sector_[i])] +
               idio + drift + pending_[i];
    pending_[i] = 0.0;

    // Residual dirty data at the return level: a bad price print is a return
    // spike undone on the following interval.
    if (rng_.bernoulli(config_.bad_tick_rate)) {
      const double jump = rng_.uniform(kBadTickMinJump, kBadTickMaxJump);
      const double spike = (rng_.bernoulli(0.5) ? 1.0 : -1.0) * jump;
      r += spike;
      pending_[i] = -spike;
    } else if (rng_.bernoulli(config_.minor_tick_rate)) {
      const double jump = rng_.uniform(kMinorTickMinJump, kMinorTickMaxJump);
      const double spike = (rng_.bernoulli(0.5) ? 1.0 : -1.0) * jump;
      r += spike;
      pending_[i] = -spike;
    }
    out[i] = r;
  }
  ++step_in_day_;
}

std::vector<double> ReturnStream::next() {
  std::vector<double> out;
  next(out);
  return out;
}

}  // namespace mm::md
