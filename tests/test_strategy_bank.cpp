// Golden digests for the pair strategy: every Trade field of every pair, for
// all 42 Table I paramsets, five extension variants and a ∆s = 5 day, each
// stepped both pair-major (run_pair_day, a bank of one) and frame-major (one
// bank over every pair). Then the strategy stage, fed recorded CorrFrames,
// must emit exactly the orders and summary that run_pair_day implies.
//
// The constants were recorded from the pair-at-a-time PairStrategy class that
// PairBank replaced: run_pair_day over every pair of the day, in pair order,
// hashing each Trade field's bytes (FNV-1a) in declaration order.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>

#include "core/backtester.hpp"
#include "dagflow/context.hpp"
#include "engine/components.hpp"
#include "engine/messages.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"

namespace mm::core {
namespace {

constexpr std::size_t kSymbols = 8;

// Seeded 8-symbol day sampled every `delta_s` seconds.
std::vector<std::vector<double>> make_bam(std::int64_t delta_s) {
  const auto universe = md::make_universe(kSymbols);
  md::GeneratorConfig cfg;
  cfg.quote_rate = 0.25;
  const md::SyntheticDay day(universe, cfg, 3);
  md::QuoteCleaner cleaner(kSymbols, md::CleanerConfig{});
  return md::sample_bam_series(cleaner.clean(day.quotes()), kSymbols, cfg.session,
                               delta_s);
}

struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis

  template <typename T>
  void add_bytes(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
  }
  void add(const Trade& t) {
    ++count;
    add_bytes(t.entry_interval);
    add_bytes(t.exit_interval);
    add_bytes(t.entry_price_i);
    add_bytes(t.entry_price_j);
    add_bytes(t.exit_price_i);
    add_bytes(t.exit_price_j);
    add_bytes(t.shares_i);
    add_bytes(t.shares_j);
    add_bytes(t.pnl);
    add_bytes(t.gross_basis);
    add_bytes(t.trade_return);
    add_bytes(t.exit_reason);
  }
  void add(double value) {
    ++count;
    add_bytes(value);
  }
  bool operator==(const Digest& o) const { return count == o.count && hash == o.hash; }
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.count << ", 0x" << std::hex << d.hash << std::dec << "}";
}

// {trades, hash} per paramset, in ParamGrid::all() order.
const Digest kTableI[42] = {
    {249u, 0xe0fe9f0993eb54c7ull},  // 0
    {293u, 0xa5d769759ec73e03ull},  // 1
    {186u, 0x389ec6841429799eull},  // 2
    {176u, 0xea87907481b5883aull},  // 3
    {249u, 0xe0fe9f0993eb54c7ull},  // 4
    {249u, 0xe0fe9f0993eb54c7ull},  // 5
    {249u, 0xe0fe9f0993eb54c7ull},  // 6
    {250u, 0x2801b36d1ff03a03ull},  // 7
    {250u, 0x2801b36d1ff03a03ull},  // 8
    {250u, 0x85d4a5aabe0ef3f7ull},  // 9
    {344u, 0x8e820bfa862b85edull},  // 10
    {228u, 0x071ffb4851fd3947ull},  // 11
    {235u, 0x3174d47d9e5b0914ull},  // 12
    {186u, 0x8f6a6e132f3ea9eaull},  // 13
    {254u, 0xa76641546ddb6628ull},  // 14
    {294u, 0xe630731e6dbae511ull},  // 15
    {189u, 0xd39c4cc0547f62b5ull},  // 16
    {175u, 0x9e683b1ab40630e8ull},  // 17
    {254u, 0xa76641546ddb6628ull},  // 18
    {254u, 0xa76641546ddb6628ull},  // 19
    {254u, 0xa76641546ddb6628ull},  // 20
    {254u, 0xa76641546ddb6628ull},  // 21
    {254u, 0xd76992bd166df6c6ull},  // 22
    {253u, 0x1ff5509f69a74e9bull},  // 23
    {341u, 0x0dce694a152a98b0ull},  // 24
    {231u, 0x71dd6e3b3bc0b864ull},  // 25
    {237u, 0x23d8ee6638fee997ull},  // 26
    {189u, 0x3283e560105b7b3cull},  // 27
    {241u, 0xc8348a33c4c4d1dfull},  // 28
    {286u, 0x3963121c842f0433ull},  // 29
    {185u, 0x125c14c941a7c107ull},  // 30
    {173u, 0x1f901e6bab4e48ccull},  // 31
    {242u, 0x9fd3cf127a55016aull},  // 32
    {241u, 0xc8348a33c4c4d1dfull},  // 33
    {241u, 0x95ba51b278144d6bull},  // 34
    {241u, 0x00ed63da647e3128ull},  // 35
    {241u, 0xd80d3ca237e7093cull},  // 36
    {240u, 0xc1fbcb35f010d723ull},  // 37
    {322u, 0x8be657d4d5a50183ull},  // 38
    {220u, 0x0851eed7075c9ea1ull},  // 39
    {237u, 0xfe7a1dfc6a0b9e2cull},  // 40
    {185u, 0x8c37620f294aad81ull},  // 41
};

// ParamGrid::base() as Combined with one extension each: stop_loss,
// correlation_reversion_exit, cost_per_share, slippage_frac, lot_size.
const Digest kVariants[5] = {
    {277u, 0xb019097e9f88849cull},
    {242u, 0xfc60f4d2920f55c1ull},
    {241u, 0x78e6517b845ba77dull},
    {241u, 0x921536a518c2efabull},
    {241u, 0xfb2b92e4ca153180ull},
};

// ParamGrid::base() (Pearson) at ∆s = 5: 4,680 intervals, so both running
// sums cross their 4096-push rebuild.
const Digest kFineDay = {854u, 0x022725dedb3e7e1eull};
// Pair 0's C̄ after every step once W coefficients are in, on that day.
const Digest kFineDayAverages = {4521u, 0x78c17e3b83cb8a3full};

std::vector<StrategyParams> extension_variants() {
  std::vector<StrategyParams> variants(5, ParamGrid::base());
  variants[0].stop_loss = 0.001;
  variants[1].correlation_reversion_exit = true;
  variants[2].cost_per_share = 0.01;
  variants[3].slippage_frac = 0.0005;
  variants[4].lot_size = 100.0;
  for (auto& v : variants) v.ctype = stats::Ctype::combined;
  return variants;
}

// Every pair's trades in pair order, each pair stepped alone.
std::vector<std::vector<Trade>> pair_major(const StrategyParams& params,
                                           const std::vector<std::vector<double>>& bam,
                                           const MarketCorrSeries& market) {
  const auto pairs = stats::all_pairs(bam.size());
  std::vector<std::vector<Trade>> trades;
  for (std::size_t k = 0; k < pairs.size(); ++k)
    trades.push_back(run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k));
  return trades;
}

// The same, with every pair in one bank stepped a frame at a time. When
// `averages` is set it also collects pair 0's C̄ after each warm step.
std::vector<std::vector<Trade>> frame_major(const StrategyParams& params,
                                            const std::vector<std::vector<double>>& bam,
                                            const MarketCorrSeries& market,
                                            Digest* averages = nullptr) {
  const std::size_t n = bam.size();
  const auto smax = static_cast<std::int64_t>(bam[0].size());
  PairBank bank(params, smax, n, stats::all_pairs(n));
  std::vector<double> prices(n), corr(bank.size());
  for (std::int64_t s = 0; s < smax; ++s) {
    const auto si = static_cast<std::size_t>(s);
    for (std::size_t i = 0; i < n; ++i) prices[i] = bam[i][si];
    const bool valid = s >= market.first_valid;
    if (valid)
      for (std::size_t k = 0; k < bank.size(); ++k) corr[k] = market.at(params.ctype, k, s);
    bank.step(s, prices.data(), corr.data(), valid);
    if (averages != nullptr && bank.correlation_ready())
      averages->add(bank.average_correlation(0));
  }
  bank.finish();
  std::vector<std::vector<Trade>> trades;
  for (std::size_t k = 0; k < bank.size(); ++k) trades.push_back(bank.take_trades(k));
  return trades;
}

Digest digest(const std::vector<std::vector<Trade>>& trades) {
  Digest d;
  for (const auto& pair : trades)
    for (const auto& t : pair) d.add(t);
  return d;
}

std::size_t count_exits(const std::vector<std::vector<Trade>>& trades, ExitReason reason) {
  std::size_t n = 0;
  for (const auto& pair : trades)
    for (const auto& t : pair) n += t.exit_reason == reason ? 1 : 0;
  return n;
}

class StrategyGolden : public ::testing::Test {
 protected:
  static const std::vector<std::vector<double>>& bam() {
    static const auto data = make_bam(30);
    return data;
  }
  // Pearson and Maronna series for every distinct M of the grid.
  static const MarketCorrSeries& market(std::int64_t m) {
    static const auto series = [] {
      std::map<std::int64_t, MarketCorrSeries> out;
      for (const auto w : ParamGrid().distinct_corr_windows())
        out.emplace(w, compute_market_corr_series(bam(), w, /*need_maronna=*/true));
      return out;
    }();
    return series.at(m);
  }
};

TEST_F(StrategyGolden, TableIParamsetsAreBitIdentical) {
  const auto all = ParamGrid().all();
  ASSERT_EQ(all.size(), 42u);
  for (std::size_t p = 0; p < all.size(); ++p) {
    const auto& series = market(all[p].corr_window);
    EXPECT_EQ(digest(pair_major(all[p], bam(), series)), kTableI[p])
        << "paramset " << p << " " << all[p].describe();
    EXPECT_EQ(digest(frame_major(all[p], bam(), series)), kTableI[p])
        << "paramset " << p << " " << all[p].describe();
  }
}

TEST_F(StrategyGolden, ExtensionVariantsAreBitIdentical) {
  const auto variants = extension_variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& series = market(variants[v].corr_window);
    const auto trades = frame_major(variants[v], bam(), series);
    EXPECT_EQ(digest(pair_major(variants[v], bam(), series)), kVariants[v]) << "variant " << v;
    EXPECT_EQ(digest(trades), kVariants[v]) << "variant " << v;
    // Each variant moves the result off the plain Combined base level.
    EXPECT_FALSE(digest(trades) == kTableI[28]) << "variant " << v;
  }
  // The two exit extensions actually fire on this day.
  EXPECT_GT(count_exits(frame_major(variants[0], bam(), market(100)), ExitReason::stop_loss),
            0u);
  EXPECT_GT(count_exits(frame_major(variants[1], bam(), market(100)),
                        ExitReason::correlation_reversion),
            0u);
}

// The windowed mean both running sums must reproduce bit for bit: subtract
// the value leaving the window, add the new one, and every 4096 pushes
// rebuild the sum from the window, oldest first.
class ReferenceMean {
 public:
  explicit ReferenceMean(std::size_t window) : window_(window) {}
  void push(double value) {
    if (values_.size() == window_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
    values_.push_back(value);
    sum_ += value;
    if (++pushes_ % 4096 == 0) {
      sum_ = 0.0;
      for (const double v : values_) sum_ += v;
    }
  }
  double mean() const { return sum_ / static_cast<double>(values_.size()); }

 private:
  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
  std::size_t pushes_ = 0;
};

TEST(StrategyGoldenFineDay, RunningMeansMatchTheWindowedMean) {
  const auto fine = make_bam(5);
  StrategyParams params = ParamGrid::base();
  params.delta_s = 5;
  const auto series = compute_market_corr_series(fine, params.corr_window, false);
  const auto pairs = stats::all_pairs(kSymbols);
  const auto smax = static_cast<std::int64_t>(fine[0].size());
  PairBank bank(params, smax, kSymbols, pairs);
  std::vector<ReferenceMean> spreads(pairs.size(), ReferenceMean(60));
  std::vector<ReferenceMean> corrs(pairs.size(), ReferenceMean(60));
  std::vector<double> prices(kSymbols), corr(pairs.size());
  for (std::int64_t s = 0; s < smax; ++s) {
    const auto si = static_cast<std::size_t>(s);
    for (std::size_t i = 0; i < kSymbols; ++i) prices[i] = fine[i][si];
    const bool valid = s >= series.first_valid;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      corr[k] = series.pearson[k][si];
      spreads[k].push(prices[pairs[k].i] - prices[pairs[k].j]);
      if (valid) corrs[k].push(corr[k]);
    }
    bank.step(s, prices.data(), corr.data(), valid);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      ASSERT_EQ(bank.average_spread(k), spreads[k].mean()) << "pair " << k << " s " << s;
      if (valid) {
        ASSERT_EQ(bank.average_correlation(k), corrs[k].mean()) << "pair " << k << " s " << s;
      }
    }
  }
}

TEST(StrategyGoldenFineDay, SumRebuildKeepsBitIdentity) {
  const auto fine = make_bam(5);
  ASSERT_EQ(fine[0].size(), 4680u);
  StrategyParams params = ParamGrid::base();
  params.delta_s = 5;
  const auto series = compute_market_corr_series(fine, params.corr_window, false);
  Digest averages;
  EXPECT_EQ(digest(pair_major(params, fine, series)), kFineDay);
  EXPECT_EQ(digest(frame_major(params, fine, series, &averages)), kFineDay);
  EXPECT_EQ(averages, kFineDayAverages);
}

// The strategy stage's output for `frames`: every order of every batch, in
// arrival order, then the summary.
struct StageOutput {
  std::vector<engine::Order> orders;
  std::vector<engine::StrategySummary> summaries;
};

StageOutput run_stage(const StrategyParams& params, std::int64_t smax,
                      std::vector<std::vector<std::uint8_t>> frames) {
  StageOutput out;
  dag::Graph g;
  const int src = g.add_node("src", [&frames](dag::Context& ctx) {
    for (auto& payload : frames) ctx.emit(0, std::move(payload));
  });
  const int uut =
      g.add_node("strategy", engine::make_strategy_stage(params, 3, smax));
  const int sink = g.add_node("sink", [&out](dag::Context& ctx) {
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      const auto type = static_cast<engine::RecordType>(u.get<std::uint8_t>());
      if (type == engine::RecordType::order_batch) {
        const auto batch = engine::OrderBatch::unpack(u);
        out.orders.insert(out.orders.end(), batch.orders.begin(), batch.orders.end());
      } else {
        out.summaries.push_back(engine::StrategySummary::unpack(u));
      }
    }
  });
  g.connect(src, 0, uut, 0);
  g.connect(uut, 0, sink, 0);
  EXPECT_TRUE(g.run().ok());
  return out;
}

bool same_order(const engine::Order& a, const engine::Order& b) {
  return a.interval == b.interval && a.strategy_id == b.strategy_id &&
         a.symbol_i == b.symbol_i && a.symbol_j == b.symbol_j && a.shares_i == b.shares_i &&
         a.shares_j == b.shares_j && a.price_i == b.price_i && a.price_j == b.price_j &&
         a.is_entry == b.is_entry;
}

TEST_F(StrategyGolden, StageMatchesRunPairDayForEveryCtype) {
  const auto& prices = bam();
  const auto smax = static_cast<std::int64_t>(prices[0].size());
  const auto pairs = stats::all_pairs(kSymbols);
  for (const auto ctype : stats::all_ctypes) {
    StrategyParams params = ParamGrid::base();
    params.ctype = ctype;
    const auto& series = market(params.corr_window);

    // The frames a Combined correlation stage emits for this day.
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::int64_t s = 0; s < smax; ++s) {
      const auto si = static_cast<std::size_t>(s);
      engine::CorrFrame frame;
      frame.interval = s;
      frame.valid = s >= series.first_valid;
      for (const auto& row : prices) frame.prices.push_back(row[si]);
      if (frame.valid) {
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          frame.pearson.push_back(series.pearson[k][si]);
          frame.maronna.push_back(series.maronna[k][si]);
        }
      }
      frames.push_back(frame.pack());
    }
    const auto out = run_stage(params, smax, std::move(frames));

    // Expected: per interval, each pair's entry or exit in pair order; then
    // the end-of-day exits in pair order; the summary adds pair by pair.
    const auto trades = pair_major(params, prices, series);
    std::vector<engine::Order> expected;
    const auto order = [&](std::size_t k, std::int64_t s, double di, double dj, double pi,
                           double pj, bool entry) {
      engine::Order o;
      o.interval = s;
      o.strategy_id = 3;
      o.symbol_i = pairs[k].i;
      o.symbol_j = pairs[k].j;
      o.shares_i = di;
      o.shares_j = dj;
      o.price_i = pi;
      o.price_j = pj;
      o.is_entry = entry ? 1 : 0;
      expected.push_back(o);
    };
    for (std::int64_t s = 0; s < smax; ++s) {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        for (const auto& t : trades[k]) {
          if (t.entry_interval == s)
            order(k, s, t.shares_i, t.shares_j, t.entry_price_i, t.entry_price_j, true);
          if (t.exit_interval == s && t.exit_reason != ExitReason::end_of_day)
            order(k, s, -t.shares_i, -t.shares_j, t.exit_price_i, t.exit_price_j, false);
        }
      }
    }
    engine::StrategySummary summary;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      for (const auto& t : trades[k]) {
        if (t.exit_reason == ExitReason::end_of_day)
          order(k, smax - 1, -t.shares_i, -t.shares_j, t.exit_price_i, t.exit_price_j, false);
        ++summary.trades;
        summary.total_pnl += t.pnl;
        summary.trade_returns.push_back(t.trade_return);
      }
    }

    SCOPED_TRACE(stats::to_string(ctype));
    ASSERT_GT(summary.trades, 0u);
    ASSERT_EQ(out.orders.size(), expected.size());
    for (std::size_t o = 0; o < expected.size(); ++o)
      EXPECT_TRUE(same_order(out.orders[o], expected[o])) << "order " << o;
    ASSERT_EQ(out.summaries.size(), 1u);
    EXPECT_EQ(out.summaries[0].strategy_id, 3);
    EXPECT_EQ(out.summaries[0].trades, summary.trades);
    EXPECT_EQ(out.summaries[0].total_pnl, summary.total_pnl);
    EXPECT_EQ(out.summaries[0].trade_returns, summary.trade_returns);
  }
}

}  // namespace
}  // namespace mm::core
