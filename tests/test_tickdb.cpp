// Tests for the embedded tick store.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "marketdata/generator.hpp"
#include "marketdata/tickdb.hpp"

namespace mm::md {
namespace {

class TickDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("mm_tickdb_test_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST_F(TickDbTest, OpenCreatesRoot) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  EXPECT_TRUE(std::filesystem::is_directory(root_));
}

TEST_F(TickDbTest, SymbolsRoundTrip) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  const auto universe = make_universe(5);
  ASSERT_TRUE(db->put_symbols(universe.table).has_value());
  auto loaded = db->get_symbols();
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 5u);
  for (SymbolId i = 0; i < 5; ++i)
    EXPECT_EQ(loaded->name(i), universe.table.name(i));
}

TEST_F(TickDbTest, SymbolsMissing) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  EXPECT_FALSE(db->get_symbols().has_value());
}

TEST_F(TickDbTest, WriteReadDay) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  const auto universe = make_universe(4);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.05;
  const SyntheticDay day(universe, cfg, 0);

  const Date date{2008, 3, 3};
  EXPECT_FALSE(db->has_day(date));
  ASSERT_TRUE(db->write_day(date, day.quotes()).has_value());
  EXPECT_TRUE(db->has_day(date));

  auto loaded = db->read_day(date);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), day.quotes().size());
  EXPECT_EQ((*loaded)[0].ts_ms, day.quotes()[0].ts_ms);
}

TEST_F(TickDbTest, ReadMissingDayFails) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  EXPECT_FALSE(db->read_day(Date{2008, 3, 4}).has_value());
}

TEST_F(TickDbTest, DaysEnumeratesSorted) {
  auto db = TickDb::open(root_);
  ASSERT_TRUE(db.has_value());
  const auto universe = make_universe(2);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.01;
  for (int k : {2, 0, 1}) {
    const SyntheticDay day(universe, cfg, k);
    ASSERT_TRUE(
        db->write_day(Date{2008, 3, 3 + k}, day.quotes()).has_value());
  }
  const auto days = db->days();
  ASSERT_EQ(days.size(), 3u);
  EXPECT_EQ(days[0], (Date{2008, 3, 3}));
  EXPECT_EQ(days[2], (Date{2008, 3, 5}));
}

}  // namespace
}  // namespace mm::md
