#include "marketdata/tickdb.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/strings.hpp"
#include "marketdata/taq.hpp"

namespace fs = std::filesystem;

namespace mm::md {

Expected<TickDb> TickDb::open(const std::string& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) return Error(Errc::io_error, "cannot create tickdb root: " + root);
  if (!fs::is_directory(root))
    return Error(Errc::io_error, "tickdb root is not a directory: " + root);
  return TickDb(root);
}

std::string TickDb::day_dir(const Date& date) const { return root_ + "/" + date.iso(); }

Status TickDb::put_symbols(const SymbolTable& symbols) {
  std::ofstream out(root_ + "/symbols.txt");
  if (!out) return Error(Errc::io_error, "cannot write symbols.txt");
  for (const auto& name : symbols.names()) out << name << '\n';
  out.flush();
  if (!out) return Error(Errc::io_error, "write failed: symbols.txt");
  return {};
}

Expected<SymbolTable> TickDb::get_symbols() const {
  std::ifstream in(root_ + "/symbols.txt");
  if (!in) return Error(Errc::not_found, "no symbols.txt in " + root_);
  SymbolTable table;
  std::string line;
  while (std::getline(in, line)) {
    const auto t = trim(line);
    if (!t.empty()) table.intern(std::string(t));
  }
  return table;
}

Status TickDb::write_day(const Date& date, const std::vector<Quote>& quotes) {
  MM_ASSERT_MSG(std::is_sorted(quotes.begin(), quotes.end(),
                               [](const Quote& a, const Quote& b) {
                                 return a.ts_ms < b.ts_ms;
                               }),
                "tickdb: quotes must be time-sorted");
  std::error_code ec;
  fs::create_directories(day_dir(date), ec);
  if (ec) return Error(Errc::io_error, "cannot create day dir: " + day_dir(date));
  return write_quotes_binary(day_dir(date) + "/quotes.bin", quotes);
}

Expected<std::vector<Quote>> TickDb::read_day(const Date& date) const {
  return read_quotes_binary(day_dir(date) + "/quotes.bin");
}

std::vector<Date> TickDb::days() const {
  std::vector<Date> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    // Expect YYYY-MM-DD.
    if (name.size() != 10 || name[4] != '-' || name[7] != '-') continue;
    auto year = parse_int(name.substr(0, 4));
    auto month = parse_int(name.substr(5, 2));
    auto day = parse_int(name.substr(8, 2));
    if (!year || !month || !day) continue;
    Date d{static_cast<int>(*year), static_cast<int>(*month), static_cast<int>(*day)};
    if (d.valid() && fs::exists(entry.path() / "quotes.bin")) out.push_back(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool TickDb::has_day(const Date& date) const {
  return fs::exists(day_dir(date) + "/quotes.bin");
}

}  // namespace mm::md
