// TAQ-style quote file I/O.
//
// Two on-disk representations:
//   * CSV matching the paper's Table II columns
//     (Timestamp,Symbol,BidPrice,AskPrice,BidSize,AskSize) — human readable,
//     interoperable; timestamps are HH:MM:SS or HH:MM:SS.mmm;
//   * a compact binary block format (header + raw Quote records) used by the
//     tickdb store, ~6x smaller and zero-parse.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"

namespace mm::md {

// "09:30:04" or "09:30:04.123" -> milliseconds since midnight.
Expected<TimeMs> parse_time_of_day(std::string_view text);
std::string format_time_of_day(TimeMs ts_ms);

// Write quotes as Table-II-style CSV (with header row).
Status write_taq_csv(const std::string& path, const std::vector<Quote>& quotes,
                     const SymbolTable& symbols);

// Read a TAQ CSV. Unknown tickers are interned into `symbols`. Malformed
// rows produce an error (strict — the cleaning stage handles bad *values*,
// not bad *syntax*).
Expected<std::vector<Quote>> read_taq_csv(const std::string& path, SymbolTable& symbols);

// One CSV row, for streaming writers.
std::string format_taq_row(const Quote& quote, const SymbolTable& symbols);

// Binary block format.
Status write_quotes_binary(const std::string& path, const std::vector<Quote>& quotes);
Expected<std::vector<Quote>> read_quotes_binary(const std::string& path);

}  // namespace mm::md
