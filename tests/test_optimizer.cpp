// Tests for the parameter-set optimizer (future-work module).
#include <gtest/gtest.h>

#include "core/optimizer.hpp"

namespace mm::core {
namespace {

ExperimentConfig detail_config() {
  ExperimentConfig cfg;
  cfg.symbols = 5;
  cfg.days = 2;
  cfg.generator.quote_rate = 0.2;
  cfg.keep_level_detail = true;
  return cfg;
}

TEST(Objective, ParseAndNames) {
  EXPECT_EQ(*parse_objective("sharpe"), Objective::sharpe);
  EXPECT_EQ(*parse_objective("mean_return"), Objective::mean_return);
  EXPECT_EQ(*parse_objective("drawdown"), Objective::drawdown);
  EXPECT_EQ(*parse_objective("win_loss"), Objective::win_loss);
  EXPECT_FALSE(parse_objective("alpha").has_value());
  EXPECT_STREQ(to_string(Objective::sharpe), "sharpe");
}

TEST(Experiment, LevelDetailPopulatedOnRequest) {
  const auto result = run_experiment(detail_config());
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(result.level_monthly_return_plus1[c].size(), 14u);
    for (const auto& level : result.level_monthly_return_plus1[c])
      EXPECT_EQ(level.size(), result.pair_count);
  }
}

TEST(Experiment, LevelDetailEmptyByDefault) {
  auto cfg = detail_config();
  cfg.keep_level_detail = false;
  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.level_monthly_return_plus1[0].empty());
}

TEST(Experiment, LevelAverageMatchesAggregatedMeasure) {
  // The paper's per-pair aggregate is the mean over levels; the detail must
  // be consistent with it.
  const auto result = run_experiment(detail_config());
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < result.pair_count; ++p) {
      double sum = 0.0;
      for (std::size_t l = 0; l < 14; ++l)
        sum += result.level_monthly_return_plus1[c][l][p];
      EXPECT_NEAR(sum / 14.0, result.monthly_return_plus1[c][p], 1e-12);
    }
  }
}

TEST(Experiment, ParallelKeepsLevelDetailIdentical) {
  auto cfg = detail_config();
  cfg.ranks = 1;
  const auto serial = run_experiment(cfg);
  cfg.ranks = 3;
  const auto parallel = run_experiment(cfg);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t l = 0; l < 14; ++l)
      for (std::size_t p = 0; p < serial.pair_count; ++p)
        ASSERT_EQ(parallel.level_monthly_return_plus1[c][l][p],
                  serial.level_monthly_return_plus1[c][l][p]);
}

TEST(Optimizer, RanksAllLevelsSortedByScore) {
  const auto result = run_experiment(detail_config());
  const ParamGrid grid;
  for (const auto objective : {Objective::sharpe, Objective::mean_return,
                               Objective::drawdown, Objective::win_loss}) {
    const auto ranking = rank_levels(result, grid, objective);
    for (std::size_t c = 0; c < 3; ++c) {
      const auto& ranked = ranking.ranked[c];
      ASSERT_EQ(ranked.size(), 14u);
      for (std::size_t r = 1; r < ranked.size(); ++r)
        EXPECT_GE(ranked[r - 1].score, ranked[r].score);
      // Every level appears exactly once.
      std::vector<bool> seen(14, false);
      for (const auto& s : ranked) {
        EXPECT_FALSE(seen[s.level_index]);
        seen[s.level_index] = true;
      }
    }
  }
}

TEST(Optimizer, ObjectivesScoreCorrectField) {
  const auto result = run_experiment(detail_config());
  const ParamGrid grid;
  const auto by_return = rank_levels(result, grid, Objective::mean_return);
  const auto by_dd = rank_levels(result, grid, Objective::drawdown);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(by_return.ranked[c][0].score,
                     by_return.ranked[c][0].mean_return_plus1);
    // Drawdown objective: the winner has the smallest mean drawdown.
    double min_dd = 1e300;
    for (const auto& s : by_dd.ranked[c]) min_dd = std::min(min_dd, s.mean_drawdown);
    EXPECT_DOUBLE_EQ(by_dd.ranked[c][0].mean_drawdown, min_dd);
  }
}

TEST(Optimizer, ParamsCarryTreatment) {
  const auto result = run_experiment(detail_config());
  const auto ranking = rank_levels(result, ParamGrid(), Objective::sharpe);
  EXPECT_EQ(ranking.ranked[0][0].params.ctype, stats::Ctype::pearson);
  EXPECT_EQ(ranking.ranked[1][0].params.ctype, stats::Ctype::maronna);
  EXPECT_EQ(ranking.ranked[2][0].params.ctype, stats::Ctype::combined);
}

TEST(Optimizer, ReportRendersTopLevels) {
  const auto result = run_experiment(detail_config());
  const auto ranking = rank_levels(result, ParamGrid(), Objective::sharpe);
  const auto text = render_optimizer_report(ranking, 3);
  EXPECT_NE(text.find("sharpe"), std::string::npos);
  EXPECT_NE(text.find("Pearson"), std::string::npos);
  EXPECT_NE(text.find("k'"), std::string::npos);
}

}  // namespace
}  // namespace mm::core
