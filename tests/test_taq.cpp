// Tests for TAQ CSV and binary quote file I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "marketdata/generator.hpp"
#include "marketdata/taq.hpp"

namespace mm::md {
namespace {

class TaqFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_taq_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST(ParseTime, ValidFormats) {
  EXPECT_EQ(*parse_time_of_day("09:30:04"),
            9 * ms_per_hour + 30 * ms_per_minute + 4 * ms_per_second);
  EXPECT_EQ(*parse_time_of_day("16:00:00"), 16 * ms_per_hour);
  EXPECT_EQ(*parse_time_of_day("09:30:04.123"),
            9 * ms_per_hour + 30 * ms_per_minute + 4 * ms_per_second + 123);
  EXPECT_EQ(*parse_time_of_day(" 10:00:00 "), 10 * ms_per_hour);
}

TEST(ParseTime, Invalid) {
  EXPECT_FALSE(parse_time_of_day("9:30:04").has_value());
  EXPECT_FALSE(parse_time_of_day("09-30-04").has_value());
  EXPECT_FALSE(parse_time_of_day("09:30:04.").has_value());
  EXPECT_FALSE(parse_time_of_day("09:30:04.1").has_value());
  EXPECT_FALSE(parse_time_of_day("25:00:00").has_value());
  EXPECT_FALSE(parse_time_of_day("").has_value());
}

TEST(FormatTime, RoundTrips) {
  for (const char* t : {"09:30:04", "16:00:00", "09:30:04.123"}) {
    EXPECT_EQ(format_time_of_day(*parse_time_of_day(t)), t);
  }
}

TEST(FormatRow, MatchesTableIIColumns) {
  SymbolTable symbols;
  Quote q;
  q.ts_ms = *parse_time_of_day("09:30:04");
  q.symbol = symbols.intern("NVDA");
  q.bid = 16.38;
  q.ask = 20.1;
  q.bid_size = 3;
  q.ask_size = 3;
  EXPECT_EQ(format_taq_row(q, symbols), "09:30:04,NVDA,16.38,20.10,3,3");
}

TEST_F(TaqFiles, CsvRoundTrip) {
  const auto universe = make_universe(4);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.02;
  const SyntheticDay day(universe, cfg, 0);
  const auto& quotes = day.quotes();
  ASSERT_GT(quotes.size(), 100u);

  ASSERT_TRUE(write_taq_csv(path("day.csv"), quotes, universe.table).has_value());

  SymbolTable read_symbols;
  auto read = read_taq_csv(path("day.csv"), read_symbols);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->size(), quotes.size());
  for (std::size_t k = 0; k < quotes.size(); ++k) {
    const auto& a = quotes[k];
    const auto& b = (*read)[k];
    // CSV stores whole seconds + prices to cents; both are exact here.
    EXPECT_EQ(a.ts_ms / 1000, b.ts_ms / 1000);
    EXPECT_EQ(universe.table.name(a.symbol), read_symbols.name(b.symbol));
    EXPECT_NEAR(a.bid, b.bid, 0.005);
    EXPECT_NEAR(a.ask, b.ask, 0.005);
    EXPECT_EQ(a.bid_size, b.bid_size);
    EXPECT_EQ(a.ask_size, b.ask_size);
  }
}

TEST_F(TaqFiles, CsvRejectsMalformedRow) {
  {
    std::ofstream out(path("bad.csv"));
    out << "Timestamp,Symbol,BidPrice,AskPrice,BidSize,AskSize\n";
    out << "09:30:04,NVDA,16.38,20.10,3\n";  // five fields
  }
  SymbolTable symbols;
  EXPECT_FALSE(read_taq_csv(path("bad.csv"), symbols).has_value());
}

TEST_F(TaqFiles, CsvRejectsBadNumbers) {
  {
    std::ofstream out(path("bad2.csv"));
    out << "09:30:04,NVDA,abc,20.10,3,3\n";
  }
  SymbolTable symbols;
  EXPECT_FALSE(read_taq_csv(path("bad2.csv"), symbols).has_value());
}

TEST_F(TaqFiles, CsvRejectsEmptySymbol) {
  {
    std::ofstream out(path("nosym.csv"));
    out << "09:30:04, ,16.38,20.10,3,3\n";
  }
  SymbolTable symbols;
  EXPECT_FALSE(read_taq_csv(path("nosym.csv"), symbols).has_value());
}

TEST_F(TaqFiles, CsvMissingFile) {
  SymbolTable symbols;
  EXPECT_FALSE(read_taq_csv(path("nope.csv"), symbols).has_value());
}

TEST_F(TaqFiles, BinaryRoundTripIsExact) {
  const auto universe = make_universe(3);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.02;
  const SyntheticDay day(universe, cfg, 1);

  ASSERT_TRUE(write_quotes_binary(path("day.bin"), day.quotes()).has_value());
  auto read = read_quotes_binary(path("day.bin"));
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->size(), day.quotes().size());
  for (std::size_t k = 0; k < read->size(); ++k) {
    EXPECT_EQ((*read)[k].ts_ms, day.quotes()[k].ts_ms);
    EXPECT_DOUBLE_EQ((*read)[k].bid, day.quotes()[k].bid);
    EXPECT_DOUBLE_EQ((*read)[k].ask, day.quotes()[k].ask);
  }
}

TEST_F(TaqFiles, BinaryRejectsGarbage) {
  {
    std::ofstream out(path("junk.bin"), std::ios::binary);
    out << "this is not a quote file at all";
  }
  EXPECT_FALSE(read_quotes_binary(path("junk.bin")).has_value());
}

TEST_F(TaqFiles, BinaryRejectsTruncation) {
  const auto universe = make_universe(2);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.01;
  const SyntheticDay day(universe, cfg, 0);
  ASSERT_TRUE(write_quotes_binary(path("t.bin"), day.quotes()).has_value());
  // Truncate the file.
  std::filesystem::resize_file(path("t.bin"), 64);
  EXPECT_FALSE(read_quotes_binary(path("t.bin")).has_value());
}

TEST_F(TaqFiles, BinaryRejectsCountBeyondFileSize) {
  const auto universe = make_universe(2);
  GeneratorConfig cfg;
  cfg.quote_rate = 0.01;
  const SyntheticDay day(universe, cfg, 0);
  ASSERT_TRUE(write_quotes_binary(path("c.bin"), day.quotes()).has_value());
  // Patch the header's u64 count (after the 8-byte magic, u32 version and
  // u32 reserved) to the largest value: the reader must reject it before it
  // sizes anything by it.
  {
    std::fstream f(path("c.bin"), std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t count = UINT64_MAX;
    f.seekp(16);
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
    ASSERT_TRUE(f.good());
  }
  const auto read = read_quotes_binary(path("c.bin"));
  ASSERT_FALSE(read.has_value());
  EXPECT_EQ(read.error().code, Errc::parse_error);
}

TEST_F(TaqFiles, GarbageLinesNeverCrashOnlyError) {
  // Deterministic fuzz: random byte soup, random field counts, random
  // numerics — the reader must return a parse error (or succeed for the rare
  // valid line), never crash or hang.
  std::uint64_t state = 4242;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  const char charset[] = "0123456789:,.-abcXYZ \t";
  for (int trial = 0; trial < 40; ++trial) {
    std::string content;
    const auto lines = 1 + next(5);
    for (std::uint64_t l = 0; l < lines; ++l) {
      const auto len = next(60);
      for (std::uint64_t c = 0; c < len; ++c)
        content += charset[next(sizeof(charset) - 1)];
      content += '\n';
    }
    const auto p = path("fuzz.csv");
    {
      std::ofstream out(p);
      out << content;
    }
    SymbolTable symbols;
    const auto result = read_taq_csv(p, symbols);  // must simply return
    if (result.has_value()) SUCCEED();
  }
}

TEST_F(TaqFiles, EmptyQuoteVectorRoundTrips) {
  ASSERT_TRUE(write_quotes_binary(path("empty.bin"), {}).has_value());
  auto read = read_quotes_binary(path("empty.bin"));
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->empty());
}

}  // namespace
}  // namespace mm::md
