// Dataset builder: materialize a synthetic "month" of TAQ-style data into an
// embedded tickdb store — the offline-data workflow (Fig. 1's "MySQL DB" /
// "Custom TAQ Files" inputs).
//
//   $ ./make_dataset --out /tmp/mm_march2008 --symbols 10 --days 5
//
// Writes one quotes.bin per business day, plus symbols.txt and (with --csv) a
// sample day exported as Table-II-style CSV. Then reads everything back and
// prints an inventory with integrity checks.
#include <cstdio>

#include "common/cli.hpp"
#include "marketdata/generator.hpp"
#include "marketdata/taq.hpp"
#include "marketdata/tickdb.hpp"

int main(int argc, char** argv) {
  using namespace mm;
  Cli cli("make_dataset", "Generate a synthetic TAQ dataset into a tickdb store");
  auto& out = cli.add_string("out", "/tmp/mm_dataset", "tickdb root directory");
  auto& symbols = cli.add_int("symbols", 10, "universe size (2..61)");
  auto& days = cli.add_int("days", 5, "business days starting 2008-03-03");
  auto& seed = cli.add_int("seed", 20080303, "generator seed");
  auto& csv = cli.add_flag("csv", "also export day 1 as TAQ CSV");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(symbols);
  const auto universe = md::make_universe(n);

  auto db = md::TickDb::open(out);
  if (!db) {
    std::fprintf(stderr, "cannot open tickdb: %s\n", db.error().message.c_str());
    return 1;
  }
  if (auto st = db->put_symbols(universe.table); !st) {
    std::fprintf(stderr, "%s\n", st.error().message.c_str());
    return 1;
  }

  md::GeneratorConfig gen;
  gen.seed = static_cast<std::uint64_t>(seed);
  const auto dates = md::business_days(md::Date{2008, 3, 3}, static_cast<int>(days));

  std::size_t total_quotes = 0;
  for (int d = 0; d < static_cast<int>(dates.size()); ++d) {
    const md::SyntheticDay day(universe, gen, d);
    if (auto st = db->write_day(dates[static_cast<std::size_t>(d)], day.quotes()); !st) {
      std::fprintf(stderr, "%s\n", st.error().message.c_str());
      return 1;
    }
    total_quotes += day.quotes().size();
    std::printf("  %s: %8zu quotes (%zu corrupted at source)\n",
                dates[static_cast<std::size_t>(d)].iso().c_str(), day.quotes().size(),
                day.corrupted_count());
    if (csv && d == 0) {
      const std::string csv_path = out + "/day1.csv";
      if (md::write_taq_csv(csv_path, day.quotes(), universe.table))
        std::printf("  exported %s\n", csv_path.c_str());
    }
  }

  // Read-back inventory with integrity checks.
  std::printf("\nstore %s:\n", out.c_str());
  auto loaded_symbols = db->get_symbols();
  std::printf("  symbols: %zu\n", loaded_symbols ? loaded_symbols->size() : 0);
  std::size_t verify_quotes = 0;
  for (const auto& date : db->days()) {
    const auto quotes = db->read_day(date);
    if (!quotes) {
      std::fprintf(stderr, "  %s: read-back FAILED\n", date.iso().c_str());
      return 1;
    }
    verify_quotes += quotes->size();
  }
  std::printf("  days: %zu, quotes: %zu\n", db->days().size(), verify_quotes);
  if (verify_quotes != total_quotes) {
    std::fprintf(stderr, "integrity check FAILED\n");
    return 1;
  }
  std::printf("  integrity: OK (read-back matches written counts)\n");
  return 0;
}
