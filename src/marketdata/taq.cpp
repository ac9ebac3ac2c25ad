#include "marketdata/taq.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/strings.hpp"

namespace mm::md {
namespace {

constexpr char kCsvHeader[] = "Timestamp,Symbol,BidPrice,AskPrice,BidSize,AskSize";

// Binary header: magic, version, record count.
struct BinaryHeader {
  char magic[8] = {'M', 'M', 'Q', 'U', 'O', 'T', 'E', 'S'};
  std::uint32_t version = 1;
  std::uint32_t reserved = 0;
  std::uint64_t count = 0;
};

}  // namespace

Expected<TimeMs> parse_time_of_day(std::string_view text) {
  const auto t = trim(text);
  // HH:MM:SS or HH:MM:SS.mmm
  if (t.size() < 8 || t[2] != ':' || t[5] != ':')
    return Error(Errc::parse_error, "bad time: " + std::string(t));
  auto digits = [](std::string_view s) -> Expected<int> {
    int v = 0;
    for (char c : s) {
      if (c < '0' || c > '9')
        return Error(Errc::parse_error, "bad time digits: " + std::string(s));
      v = v * 10 + (c - '0');
    }
    return v;
  };
  auto hh = digits(t.substr(0, 2));
  auto mmin = digits(t.substr(3, 2));
  auto ss = digits(t.substr(6, 2));
  if (!hh || !mmin || !ss) return Error(Errc::parse_error, "bad time: " + std::string(t));
  int ms = 0;
  if (t.size() > 8) {
    if (t[8] != '.' || t.size() != 12)
      return Error(Errc::parse_error, "bad time fraction: " + std::string(t));
    auto frac = digits(t.substr(9, 3));
    if (!frac) return frac.error();
    ms = *frac;
  }
  if (*hh > 23 || *mmin > 59 || *ss > 60)
    return Error(Errc::parse_error, "time out of range: " + std::string(t));
  return TimeMs{*hh * ms_per_hour + *mmin * ms_per_minute + *ss * ms_per_second + ms};
}

std::string format_time_of_day(TimeMs ts_ms) {
  const auto h = ts_ms / ms_per_hour;
  const auto m = (ts_ms % ms_per_hour) / ms_per_minute;
  const auto s = (ts_ms % ms_per_minute) / ms_per_second;
  const auto ms = ts_ms % ms_per_second;
  if (ms == 0) return format("%02lld:%02lld:%02lld", static_cast<long long>(h),
                             static_cast<long long>(m), static_cast<long long>(s));
  return format("%02lld:%02lld:%02lld.%03lld", static_cast<long long>(h),
                static_cast<long long>(m), static_cast<long long>(s),
                static_cast<long long>(ms));
}

std::string format_taq_row(const Quote& quote, const SymbolTable& symbols) {
  return format("%s,%s,%.2f,%.2f,%d,%d", format_time_of_day(quote.ts_ms).c_str(),
                symbols.name(quote.symbol).c_str(), quote.bid, quote.ask,
                quote.bid_size, quote.ask_size);
}

Status write_taq_csv(const std::string& path, const std::vector<Quote>& quotes,
                     const SymbolTable& symbols) {
  std::ofstream out(path);
  if (!out) return Error(Errc::io_error, "cannot open for write: " + path);
  out << kCsvHeader << '\n';
  for (const auto& q : quotes) out << format_taq_row(q, symbols) << '\n';
  out.flush();
  if (!out) return Error(Errc::io_error, "write failed: " + path);
  return {};
}

Expected<std::vector<Quote>> read_taq_csv(const std::string& path, SymbolTable& symbols) {
  std::ifstream in(path);
  if (!in) return Error(Errc::io_error, "cannot open: " + path);

  std::vector<Quote> quotes;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (line_no == 1 && starts_with(trimmed, "Timestamp")) continue;

    const auto fields = split(trimmed, ',');
    if (fields.size() != 6)
      return Error(Errc::parse_error,
                   format("%s:%zu: expected 6 fields, got %zu", path.c_str(), line_no,
                          fields.size()));
    auto ts = parse_time_of_day(fields[0]);
    auto bid = parse_double(fields[2]);
    auto ask = parse_double(fields[3]);
    auto bid_size = parse_int(fields[4]);
    auto ask_size = parse_int(fields[5]);
    if (!ts) return Error(Errc::parse_error, format("%s:%zu: ", path.c_str(), line_no) + ts.error().message);
    if (!bid || !ask || !bid_size || !ask_size)
      return Error(Errc::parse_error, format("%s:%zu: bad numeric field", path.c_str(), line_no));

    const auto ticker = trim(fields[1]);
    if (ticker.empty())
      return Error(Errc::parse_error, format("%s:%zu: empty symbol", path.c_str(), line_no));

    Quote q;
    q.ts_ms = *ts;
    q.symbol = symbols.intern(std::string(ticker));
    q.bid = *bid;
    q.ask = *ask;
    q.bid_size = static_cast<std::int32_t>(*bid_size);
    q.ask_size = static_cast<std::int32_t>(*ask_size);
    quotes.push_back(q);
  }
  return quotes;
}

Status write_quotes_binary(const std::string& path, const std::vector<Quote>& quotes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error(Errc::io_error, "cannot open for write: " + path);
  BinaryHeader header;
  header.count = quotes.size();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(quotes.data()),
            static_cast<std::streamsize>(quotes.size() * sizeof(Quote)));
  out.flush();
  if (!out) return Error(Errc::io_error, "write failed: " + path);
  return {};
}

Expected<std::vector<Quote>> read_quotes_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(Errc::io_error, "cannot open: " + path);
  BinaryHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, "MMQUOTES", 8) != 0)
    return Error(Errc::parse_error, "not a quote file: " + path);
  if (header.version != 1)
    return Error(Errc::parse_error, format("unsupported version %u", header.version));
  // Bound the header's count by the bytes that follow it before allocating:
  // a corrupt count must fail here, not size the vector.
  const std::streamoff body_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff body_bytes = in.tellg() - body_at;
  in.seekg(body_at);
  if (!in || body_bytes < 0 ||
      header.count > static_cast<std::uint64_t>(body_bytes) / sizeof(Quote))
    return Error(Errc::parse_error,
                 format("quote count %llu exceeds the file: %s",
                        static_cast<unsigned long long>(header.count), path.c_str()));
  std::vector<Quote> quotes(header.count);
  in.read(reinterpret_cast<char*>(quotes.data()),
          static_cast<std::streamsize>(header.count * sizeof(Quote)));
  if (!in) return Error(Errc::io_error, "truncated quote file: " + path);
  return quotes;
}

}  // namespace mm::md
