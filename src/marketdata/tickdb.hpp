// tickdb: an embedded, file-backed historical tick store.
//
// Stands in for the paper's MySQL historical database (Fig. 1's "DB
// Collector" input). Layout on disk:
//
//   <root>/symbols.txt            one ticker per line, line number = SymbolId
//   <root>/<DATE>/quotes.bin      all quotes of that trading day, time-sorted,
//                                 in the binary block format from taq.hpp
//
// The store reads and writes whole days, which is all the backtesting
// collectors need: md::DayCache::from_tickdb loads a day through read_day.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"

namespace mm::md {

class TickDb {
 public:
  // Opens (creating the directory if needed) a store at `root`.
  static Expected<TickDb> open(const std::string& root);

  // Persist the symbol table (call once after interning the universe, before
  // the first write_day).
  Status put_symbols(const SymbolTable& symbols);
  Expected<SymbolTable> get_symbols() const;

  // Write a full day of quotes (must be time-sorted).
  Status write_day(const Date& date, const std::vector<Quote>& quotes);

  // Read a full day.
  Expected<std::vector<Quote>> read_day(const Date& date) const;

  // Days present in the store, sorted ascending.
  std::vector<Date> days() const;

  bool has_day(const Date& date) const;

  const std::string& root() const { return root_; }

 private:
  explicit TickDb(std::string root) : root_(std::move(root)) {}
  std::string day_dir(const Date& date) const;

  std::string root_;
};

}  // namespace mm::md
