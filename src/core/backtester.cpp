#include "core/backtester.hpp"

#include "marketdata/bars.hpp"
#include "stats/corr_engine.hpp"

namespace mm::core {

CorrSeries compute_pair_corr_series(const std::vector<double>& prices_i,
                                    const std::vector<double>& prices_j,
                                    stats::Ctype ctype, std::int64_t corr_window,
                                    const stats::MaronnaConfig& maronna_config) {
  MM_ASSERT_MSG(prices_i.size() == prices_j.size(), "price series length mismatch");
  const auto smax = static_cast<std::int64_t>(prices_i.size());
  const auto m = static_cast<std::size_t>(corr_window);
  MM_ASSERT_MSG(corr_window >= 2, "corr window must be >= 2");

  const auto ri = md::log_returns(prices_i);
  const auto rj = md::log_returns(prices_j);

  CorrSeries out;
  out.first_valid = corr_window;
  out.values.assign(static_cast<std::size_t>(smax), 0.0);
  // Returns r[t] correspond to interval t+1; the window of the last M returns
  // at interval s is r[s-M .. s-1] (indices into the return arrays).
  for (std::int64_t s = corr_window; s < smax; ++s) {
    const double* x = ri.data() + (s - corr_window);
    const double* y = rj.data() + (s - corr_window);
    out.values[static_cast<std::size_t>(s)] =
        stats::correlation(ctype, x, y, m, maronna_config);
  }
  return out;
}

double MarketCorrSeries::at(stats::Ctype ctype, std::size_t pair_index,
                            std::int64_t s) const {
  MM_ASSERT(pair_index < pearson.size());
  const auto si = static_cast<std::size_t>(s);
  switch (ctype) {
    case stats::Ctype::pearson:
      return pearson[pair_index][si];
    case stats::Ctype::maronna:
      MM_ASSERT_MSG(has_maronna, "Maronna series not computed");
      return maronna[pair_index][si];
    case stats::Ctype::combined:
      MM_ASSERT_MSG(has_maronna, "Combined needs the Maronna series");
      return stats::combine(pearson[pair_index][si], maronna[pair_index][si]);
  }
  MM_ASSERT_MSG(false, "unreachable Ctype");
  return 0.0;
}

MarketCorrSeries compute_market_corr_series(const std::vector<std::vector<double>>& bam,
                                            std::int64_t corr_window, bool need_maronna,
                                            const stats::MaronnaConfig& maronna_config) {
  return compute_market_corr_series(bam, corr_window, need_maronna, maronna_config,
                                    stats::all_pairs(bam.size()));
}

MarketCorrSeries compute_market_corr_series(const std::vector<std::vector<double>>& bam,
                                            std::int64_t corr_window, bool need_maronna,
                                            const stats::MaronnaConfig& maronna_config,
                                            const std::vector<stats::PairIndex>& pairs) {
  const std::size_t n = bam.size();
  MM_ASSERT_MSG(n >= 2, "need at least two symbols");
  const auto smax = static_cast<std::int64_t>(bam[0].size());

  MarketCorrSeries out;
  out.first_valid = corr_window;
  out.smax = smax;
  out.symbols = n;
  out.has_maronna = need_maronna;
  out.pearson.assign(pairs.size(), std::vector<double>(static_cast<std::size_t>(smax), 0.0));
  if (need_maronna)
    out.maronna.assign(pairs.size(),
                       std::vector<double>(static_cast<std::size_t>(smax), 0.0));

  // Per-symbol return streams, pushed in lockstep.
  std::vector<std::vector<double>> returns(n);
  for (std::size_t i = 0; i < n; ++i) {
    MM_ASSERT_MSG(bam[i].size() == static_cast<std::size_t>(smax),
                  "ragged BAM matrix");
    returns[i] = md::log_returns(bam[i]);
  }

  // One calculator serves both measures: Combined carries the incremental
  // Pearson sums and the robust path's unwrap arena and per-symbol scales.
  stats::CorrEngineConfig engine;
  engine.type = need_maronna ? stats::Ctype::combined : stats::Ctype::pearson;
  engine.window = static_cast<std::size_t>(corr_window);
  engine.maronna = maronna_config;
  stats::CorrelationCalculator calc(engine, n);
  std::vector<double> step_returns(n);
  std::vector<double> step_maronna(need_maronna ? pairs.size() : 0);

  for (std::int64_t s = 1; s < smax; ++s) {
    for (std::size_t i = 0; i < n; ++i)
      step_returns[i] = returns[i][static_cast<std::size_t>(s - 1)];
    calc.push(step_returns);
    if (!calc.ready()) continue;

    const auto si = static_cast<std::size_t>(s);
    if (need_maronna) calc.robust_into(pairs.data(), pairs.size(), step_maronna.data());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto [i, j] = pairs[k];
      out.pearson[k][si] = calc.pearson(i, j);
      if (need_maronna) out.maronna[k][si] = step_maronna[k];
    }
  }
  return out;
}

namespace {

template <typename CorrLookup>
std::vector<Trade> run_day_impl(const StrategyParams& params,
                                const std::vector<double>& prices_i,
                                const std::vector<double>& prices_j,
                                std::int64_t first_valid, CorrLookup&& corr_at) {
  MM_ASSERT_MSG(prices_i.size() == prices_j.size(), "price series length mismatch");
  const auto smax = static_cast<std::int64_t>(prices_i.size());
  PairBank bank(params, smax, 2, {{0, 1}});
  for (std::int64_t s = 0; s < smax; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const double prices[2] = {prices_i[si], prices_j[si]};
    const bool valid = s >= first_valid;
    const double c = valid ? corr_at(s) : 0.0;
    bank.step(s, prices, &c, valid);
  }
  bank.finish();
  return bank.take_trades(0);
}

}  // namespace

std::vector<Trade> run_pair_day(const StrategyParams& params,
                                const std::vector<double>& prices_i,
                                const std::vector<double>& prices_j,
                                const CorrSeries& corr) {
  MM_ASSERT_MSG(corr.values.size() == prices_i.size(), "corr series length mismatch");
  return run_day_impl(params, prices_i, prices_j, corr.first_valid,
                      [&](std::int64_t s) { return corr.values[static_cast<std::size_t>(s)]; });
}

std::vector<Trade> run_pair_day(const StrategyParams& params,
                                const std::vector<double>& prices_i,
                                const std::vector<double>& prices_j,
                                const MarketCorrSeries& market, std::size_t pair_index) {
  return run_day_impl(params, prices_i, prices_j, market.first_valid,
                      [&](std::int64_t s) { return market.at(params.ctype, pair_index, s); });
}

}  // namespace mm::core
