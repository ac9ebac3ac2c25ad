// Tests for the §V experiment framework: structure, determinism, and
// bit-identical results at any rank count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace mm::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.symbols = 5;  // 10 pairs
  cfg.days = 2;
  cfg.generator.quote_rate = 0.2;  // keep the test quick
  return cfg;
}

TEST(Experiment, ResultShapeMatchesConfig) {
  const auto result = run_experiment(tiny_config());
  EXPECT_EQ(result.symbols, 5u);
  EXPECT_EQ(result.pair_count, 10u);
  EXPECT_EQ(result.days, 2);
  EXPECT_EQ(result.pair_names.size(), 10u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(result.monthly_return_plus1[static_cast<std::size_t>(c)].size(), 10u);
    EXPECT_EQ(result.max_daily_drawdown[static_cast<std::size_t>(c)].size(), 10u);
    EXPECT_EQ(result.win_loss[static_cast<std::size_t>(c)].size(), 10u);
  }
  EXPECT_GT(result.quotes_processed, 0u);
  EXPECT_GT(result.total_trades, 0u);
  EXPECT_EQ(result.pair_names[0], "MSFT/IBM");
}

TEST(Experiment, MeasuresInPlausibleRanges) {
  const auto result = run_experiment(tiny_config());
  for (int c = 0; c < 3; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (std::size_t p = 0; p < result.pair_count; ++p) {
      // Monthly return +1 must be positive and not absurd.
      EXPECT_GT(result.monthly_return_plus1[ci][p], 0.5);
      EXPECT_LT(result.monthly_return_plus1[ci][p], 3.0);
      // Drawdown is a non-negative fraction.
      EXPECT_GE(result.max_daily_drawdown[ci][p], 0.0);
      EXPECT_LT(result.max_daily_drawdown[ci][p], 1.0);
      EXPECT_GE(result.win_loss[ci][p], 0.0);
    }
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(tiny_config());
  const auto b = run_experiment(tiny_config());
  for (int c = 0; c < 3; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (std::size_t p = 0; p < a.pair_count; ++p) {
      EXPECT_DOUBLE_EQ(a.monthly_return_plus1[ci][p], b.monthly_return_plus1[ci][p]);
      EXPECT_DOUBLE_EQ(a.max_daily_drawdown[ci][p], b.max_daily_drawdown[ci][p]);
      EXPECT_DOUBLE_EQ(a.win_loss[ci][p], b.win_loss[ci][p]);
    }
  }
  EXPECT_EQ(a.total_trades, b.total_trades);
}

TEST(Experiment, ParallelMatchesSerialExactly) {
  auto cfg = tiny_config();
  cfg.ranks = 1;
  const auto serial = run_experiment(cfg);
  for (int ranks : {2, 3}) {
    cfg.ranks = ranks;
    const auto parallel = run_experiment(cfg);
    EXPECT_EQ(parallel.total_trades, serial.total_trades) << ranks << " ranks";
    for (int c = 0; c < 3; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      for (std::size_t p = 0; p < serial.pair_count; ++p) {
        // Bit-identical, not merely within ULPs: each pair's arithmetic is
        // the same whichever thread's block holds it.
        ASSERT_EQ(parallel.monthly_return_plus1[ci][p],
                  serial.monthly_return_plus1[ci][p])
            << ranks << " ranks, pair " << p;
        ASSERT_EQ(parallel.max_daily_drawdown[ci][p], serial.max_daily_drawdown[ci][p]);
        ASSERT_EQ(parallel.win_loss[ci][p], serial.win_loss[ci][p]);
      }
    }
  }
}

// FNV-1a over the bytes of every value, in the order added.
struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis

  template <typename T>
  void add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
  }
  void add(const std::vector<double>& values) {
    for (const double v : values) add(v);
  }
};

std::uint64_t digest(const ExperimentResult& r) {
  Digest d;
  for (std::size_t c = 0; c < 3; ++c) {
    d.add(r.monthly_return_plus1[c]);
    d.add(r.max_daily_drawdown[c]);
    d.add(r.win_loss[c]);
    for (const auto& level : r.level_monthly_return_plus1[c]) d.add(level);
    for (const auto& level : r.level_max_daily_drawdown[c]) d.add(level);
    for (const auto& level : r.level_win_loss[c]) d.add(level);
  }
  d.add(r.total_trades);
  d.add(static_cast<std::uint64_t>(r.quotes_processed));
  d.add(static_cast<std::uint64_t>(r.quotes_dropped));
  return d.hash;
}

// Every averaged and per-level measure plus the trade and quote counts of the
// tiny experiment are pinned bit for bit, at rank counts that leave some
// threads with one pair and (12 > 10 pairs) some with none.
TEST(ExperimentGolden, MeasuresAreBitIdentical) {
  constexpr std::uint64_t kGolden = 0x12e8191a486f888aULL;
  auto cfg = tiny_config();
  cfg.keep_level_detail = true;
  for (int ranks : {1, 2, 3, 4, 12}) {
    cfg.ranks = ranks;
    const auto result = run_experiment(cfg);
    ASSERT_EQ(result.level_win_loss[0].size(), 14u);
    const std::uint64_t d = digest(result);
    EXPECT_EQ(d, kGolden) << ranks << " ranks, digest 0x" << std::hex << d;
  }
}

TEST(Experiment, SeedChangesResults) {
  auto cfg = tiny_config();
  const auto a = run_experiment(cfg);
  cfg.generator.seed = 999;
  const auto b = run_experiment(cfg);
  bool any_different = false;
  for (std::size_t p = 0; p < a.pair_count; ++p)
    if (a.monthly_return_plus1[0][p] != b.monthly_return_plus1[0][p])
      any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Report, TablesRenderAllRows) {
  const auto result = run_experiment(tiny_config());
  const auto table3 = render_table(result, Measure::monthly_return, true, false);
  EXPECT_NE(table3.find("Mean"), std::string::npos);
  EXPECT_NE(table3.find("Sharpe Ratio"), std::string::npos);
  EXPECT_NE(table3.find("Kurtosis"), std::string::npos);
  EXPECT_NE(table3.find("Maronna"), std::string::npos);
  EXPECT_NE(table3.find("Pearson"), std::string::npos);
  EXPECT_NE(table3.find("Combined"), std::string::npos);

  const auto table4 = render_table(result, Measure::max_daily_drawdown, false, true);
  EXPECT_NE(table4.find('%'), std::string::npos);
  EXPECT_EQ(table4.find("Sharpe"), std::string::npos);
}

TEST(Report, BoxplotsRender) {
  const auto result = run_experiment(tiny_config());
  const auto block = render_boxplots(result, Measure::win_loss);
  EXPECT_NE(block.find("med="), std::string::npos);
  EXPECT_NE(block.find("axis:"), std::string::npos);
  EXPECT_NE(block.find('#'), std::string::npos);
}

TEST(Report, CsvExportRoundTrips) {
  const auto result = run_experiment(tiny_config());
  const std::string path = "/tmp/mm_report_test.csv";
  ASSERT_TRUE(write_experiment_csv(result, path).has_value());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "pair,ctype,monthly_return_plus1,max_daily_drawdown,win_loss");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, result.pair_count * 3);
  std::remove(path.c_str());
}

TEST(Report, PaperReferencesNonEmpty) {
  for (Measure m : {Measure::monthly_return, Measure::max_daily_drawdown,
                    Measure::win_loss}) {
    EXPECT_FALSE(paper_reference(m).empty());
    EXPECT_NE(paper_reference(m).find("paper"), std::string::npos);
  }
}

}  // namespace
}  // namespace mm::core
