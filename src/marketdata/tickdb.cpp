#include "marketdata/tickdb.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/strings.hpp"
#include "marketdata/taq.hpp"

namespace fs = std::filesystem;

namespace mm::md {
namespace {

// Sidecar time index: for each `bucket_ms` bucket since midnight, the index
// of the first quote at or after the bucket's start. Lets range reads seek.
struct IndexHeader {
  char magic[8] = {'M', 'M', 'Q', 'I', 'D', 'X', '0', '1'};
  std::int64_t bucket_ms = 60'000;
  std::uint64_t bucket_count = 0;
};

Status write_time_index(const std::string& path, const std::vector<Quote>& quotes) {
  IndexHeader header;
  const TimeMs last = quotes.empty() ? 0 : quotes.back().ts_ms;
  header.bucket_count = static_cast<std::uint64_t>(last / header.bucket_ms) + 1;

  std::vector<std::uint64_t> first_at(header.bucket_count, quotes.size());
  for (std::size_t k = quotes.size(); k-- > 0;) {
    const auto bucket = static_cast<std::size_t>(quotes[k].ts_ms / header.bucket_ms);
    first_at[bucket] = k;
  }
  // Buckets with no quotes point at the next bucket's first record.
  for (std::size_t b = first_at.size(); b-- > 1;)
    if (first_at[b - 1] == quotes.size()) first_at[b - 1] = first_at[b];
  // (A trailing empty region keeps quotes.size(), i.e. "end".)
  for (std::size_t b = first_at.size(); b-- > 1;)
    first_at[b - 1] = std::min(first_at[b - 1], first_at[b]);

  std::ofstream out(path, std::ios::binary);
  if (!out) return Error(Errc::io_error, "cannot write index: " + path);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(first_at.data()),
            static_cast<std::streamsize>(first_at.size() * sizeof(std::uint64_t)));
  out.flush();
  if (!out) return Error(Errc::io_error, "index write failed: " + path);
  return {};
}

// Returns the record index to start scanning from for timestamps >= from,
// or 0 when the index is missing/unusable.
std::size_t index_seek(const std::string& path, TimeMs from, std::size_t record_count) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  IndexHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, "MMQIDX01", 8) != 0 || header.bucket_ms <= 0)
    return 0;
  if (from < 0) return 0;
  const auto bucket = static_cast<std::uint64_t>(from / header.bucket_ms);
  if (bucket >= header.bucket_count) return record_count;  // past the last quote
  in.seekg(static_cast<std::streamoff>(sizeof(header) +
                                       bucket * sizeof(std::uint64_t)));
  std::uint64_t first = 0;
  in.read(reinterpret_cast<char*>(&first), sizeof(first));
  if (!in || first > record_count) return 0;
  return static_cast<std::size_t>(first);
}

}  // namespace

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
  if (auto st = write_quotes_binary(day_dir(date) + "/quotes.bin", quotes); !st)
    return st;
  return write_time_index(day_dir(date) + "/quotes.idx", quotes);
}

bool TickDb::has_index(const Date& date) const {
  return fs::exists(day_dir(date) + "/quotes.idx");
}

Expected<std::vector<Quote>> TickDb::read_day(const Date& date) const {
  return read_quotes_binary(day_dir(date) + "/quotes.bin");
}

Expected<std::vector<Quote>> TickDb::read_range(const Date& date,
                                                const std::vector<SymbolId>& symbols,
                                                std::optional<TimeMs> from,
                                                std::optional<TimeMs> to) const {
  auto all = read_day(date);
  if (!all) return all.error();

  std::vector<bool> want;
  if (!symbols.empty()) {
    SymbolId max_id = 0;
    for (auto s : symbols) max_id = std::max(max_id, s);
    want.assign(max_id + 1, false);
    for (auto s : symbols) want[s] = true;
  }

  // Seek via the time index when a lower bound is given (falls back to a
  // full scan when the sidecar is missing).
  std::size_t start = 0;
  if (from)
    start = index_seek(day_dir(date) + "/quotes.idx", *from, all->size());

  std::vector<Quote> out;
  for (std::size_t k = start; k < all->size(); ++k) {
    const auto& q = (*all)[k];
    if (from && q.ts_ms < *from) continue;
    if (to && q.ts_ms >= *to) break;  // time-sorted: nothing later matches
    if (!want.empty() && (q.symbol >= want.size() || !want[q.symbol])) continue;
    out.push_back(q);
  }
  return out;
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
