// Tests for BAM sampling and log-return construction.
#include <gtest/gtest.h>

#include <cmath>

#include "marketdata/bars.hpp"

namespace mm::md {
namespace {

Quote quote_at(TimeMs ts, SymbolId sym, double mid) {
  Quote q;
  q.ts_ms = ts;
  q.symbol = sym;
  q.bid = mid - 0.05;
  q.ask = mid + 0.05;
  q.bid_size = 1;
  q.ask_size = 1;
  return q;
}

TEST(LogReturns, MatchesDefinition) {
  const std::vector<double> prices = {100.0, 101.0, 99.0};
  const auto r = log_returns(prices);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], std::log(101.0 / 100.0));
  EXPECT_DOUBLE_EQ(r[1], std::log(99.0 / 101.0));
}

TEST(LogReturns, ShortInputs) {
  EXPECT_TRUE(log_returns({}).empty());
  EXPECT_TRUE(log_returns({5.0}).empty());
}

TEST(SampleBamSeries, LastQuoteOfIntervalWins) {
  const Session session;
  const TimeMs open = session.open_ms();
  std::vector<Quote> quotes = {
      quote_at(open + 1'000, 0, 10.0),
      quote_at(open + 20'000, 0, 11.0),   // last in interval 0
      quote_at(open + 40'000, 0, 12.0),   // interval 1
  };
  const auto series = sample_bam_series(quotes, 1, session, 30);
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].size(), 780u);
  EXPECT_DOUBLE_EQ(series[0][0], 11.0);
  EXPECT_DOUBLE_EQ(series[0][1], 12.0);
}

TEST(SampleBamSeries, CarriesForwardThroughQuietIntervals) {
  const Session session;
  const TimeMs open = session.open_ms();
  std::vector<Quote> quotes = {
      quote_at(open + 1'000, 0, 10.0),
      quote_at(open + 300'000, 0, 20.0),  // interval 10
  };
  const auto series = sample_bam_series(quotes, 1, session, 30);
  for (int s = 0; s < 10; ++s) EXPECT_DOUBLE_EQ(series[0][static_cast<std::size_t>(s)], 10.0);
  EXPECT_DOUBLE_EQ(series[0][10], 20.0);
  EXPECT_DOUBLE_EQ(series[0][779], 20.0);
}

TEST(SampleBamSeries, BackfillsBeforeFirstQuote) {
  const Session session;
  const TimeMs open = session.open_ms();
  std::vector<Quote> quotes = {
      quote_at(open + 95'000, 0, 42.0),  // first quote in interval 3
  };
  const auto series = sample_bam_series(quotes, 1, session, 30);
  EXPECT_DOUBLE_EQ(series[0][0], 42.0);
  EXPECT_DOUBLE_EQ(series[0][2], 42.0);
  EXPECT_DOUBLE_EQ(series[0][3], 42.0);
}

TEST(SampleBamSeries, MultiSymbolIndependence) {
  const Session session;
  const TimeMs open = session.open_ms();
  std::vector<Quote> quotes = {
      quote_at(open + 1'000, 0, 10.0),
      quote_at(open + 2'000, 1, 50.0),
      quote_at(open + 31'000, 1, 55.0),
  };
  const auto series = sample_bam_series(quotes, 2, session, 30);
  EXPECT_DOUBLE_EQ(series[0][1], 10.0);  // symbol 0 carries forward
  EXPECT_DOUBLE_EQ(series[1][1], 55.0);  // symbol 1 updated
}

}  // namespace
}  // namespace mm::md
