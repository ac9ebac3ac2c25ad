#include "marketdata/bars.hpp"

#include <cmath>

namespace mm::md {

std::vector<std::vector<double>> sample_bam_series(const std::vector<Quote>& quotes,
                                                   std::size_t symbol_count,
                                                   const Session& session,
                                                   std::int64_t delta_s) {
  const std::int64_t smax = session.interval_count(delta_s);
  std::vector<std::vector<double>> series(
      symbol_count, std::vector<double>(static_cast<std::size_t>(smax), 0.0));
  std::vector<double> last(symbol_count, 0.0);
  std::vector<bool> have(symbol_count, false);
  std::vector<std::int64_t> first_quote_interval(symbol_count, smax);

  std::size_t qi = 0;
  for (std::int64_t s = 0; s < smax; ++s) {
    const TimeMs end = session.interval_end(s, delta_s);
    for (; qi < quotes.size() && quotes[qi].ts_ms < end; ++qi) {
      const Quote& q = quotes[qi];
      if (q.symbol >= symbol_count || !session.contains(q.ts_ms)) continue;
      last[q.symbol] = q.bam();
      if (!have[q.symbol]) {
        have[q.symbol] = true;
        first_quote_interval[q.symbol] = s;
      }
    }
    for (std::size_t i = 0; i < symbol_count; ++i)
      series[i][static_cast<std::size_t>(s)] = last[i];
  }

  // Backfill the stretch before a symbol's first quote with its first price,
  // so log-returns there are zero instead of undefined.
  for (std::size_t i = 0; i < symbol_count; ++i) {
    MM_ASSERT_MSG(have[i], "sample_bam_series: symbol never quoted");
    const auto first = static_cast<std::size_t>(first_quote_interval[i]);
    for (std::size_t s = 0; s < first; ++s) series[i][s] = series[i][first];
  }
  return series;
}

std::vector<double> log_returns(const std::vector<double>& prices) {
  std::vector<double> out;
  if (prices.size() < 2) return out;
  out.reserve(prices.size() - 1);
  for (std::size_t t = 1; t < prices.size(); ++t) {
    MM_ASSERT_MSG(prices[t] > 0.0 && prices[t - 1] > 0.0,
                  "log_returns: non-positive price");
    out.push_back(std::log(prices[t] / prices[t - 1]));
  }
  return out;
}

}  // namespace mm::md
