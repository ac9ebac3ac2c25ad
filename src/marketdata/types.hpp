// Core market-data value types.
//
// The pipeline's unit of input is the Quote — (timestamp, symbol, bid, ask,
// sizes) — matching the TAQ sample in Table II of the paper. Timestamps are
// milliseconds since midnight (exchange local time) plus a separate trading
// day index; the strategy only ever reasons within one day.
#pragma once

#include <cstdint>
#include <string>

namespace mm::md {

// Dense symbol identifier assigned by SymbolTable.
using SymbolId = std::uint32_t;
inline constexpr SymbolId invalid_symbol = 0xffffffffu;

// Milliseconds since midnight, exchange local time.
using TimeMs = std::int64_t;

inline constexpr TimeMs ms_per_second = 1000;
inline constexpr TimeMs ms_per_minute = 60 * ms_per_second;
inline constexpr TimeMs ms_per_hour = 60 * ms_per_minute;

// A single bid/ask quote tick. Trivially copyable by design: quotes are
// bulk-copied through mailboxes, files and the tick store.
struct Quote {
  TimeMs ts_ms = 0;
  SymbolId symbol = invalid_symbol;
  double bid = 0.0;
  double ask = 0.0;
  std::int32_t bid_size = 0;
  std::int32_t ask_size = 0;

  // Bid-ask midpoint — the paper's price proxy (§III): closer to the true
  // price level between trades than the last trade, especially for
  // infrequently traded names.
  double bam() const { return 0.5 * (bid + ask); }

  // Structurally valid: positive prices, uncrossed book.
  bool plausible() const {
    return bid > 0.0 && ask > 0.0 && bid <= ask && bid_size >= 0 && ask_size >= 0;
  }
};

static_assert(sizeof(Quote) == 40, "Quote layout is part of the tickdb format");

}  // namespace mm::md
