// A quote source backed by a TCP wire-format session.
//
// WireQuoteSource subscribes to a day on a TcpFeedServer (hello with the
// day's key), then pulls quotes out of the socket incrementally through the
// zero-copy FrameParser: next() performs no heap allocation in steady state
// and hands back quotes in stream order. fetch_day() is the batch
// convenience used as a md::DayCache loader — the socket-fed day source for
// the backtest service.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "marketdata/types.hpp"
#include "wire/feed.hpp"
#include "wire/parser.hpp"
#include "wire/socket.hpp"

namespace mm::wire {

class WireQuoteSource {
 public:
  // Connect and subscribe. Non-movable (the parser holds views into the
  // receive buffer), hence the unique_ptr return.
  static Expected<std::unique_ptr<WireQuoteSource>> connect(
      const std::string& host, std::uint16_t port, const std::string& key,
      std::chrono::milliseconds connect_timeout = std::chrono::milliseconds{2000});

  // Next quote in stream order; nullopt at end_of_day — and on transport or
  // parse failure, which failed()/error() disambiguate from a clean end.
  std::optional<md::Quote> next();

  bool done() const { return done_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::uint64_t session() const { return session_; }
  const FeedStats& stats() const { return stats_; }

  WireQuoteSource(const WireQuoteSource&) = delete;
  WireQuoteSource& operator=(const WireQuoteSource&) = delete;

 private:
  WireQuoteSource() = default;

  void fail(std::string why) {
    failed_ = true;
    done_ = true;
    error_ = std::move(why);
  }

  Socket sock_;
  FrameParser parser_;
  std::vector<std::uint8_t> rx_ = std::vector<std::uint8_t>(64 << 10);
  std::uint64_t session_ = 0;
  std::uint64_t announced_count_ = 0;
  FeedStats stats_{};
  bool done_ = false;
  bool failed_ = false;
  std::string error_;
};

// Fetch a whole day over TCP: connect, subscribe to `key`, drain to
// end_of_day. Shaped for md::DayCache: bind host/port and it IS a loader.
Expected<std::vector<md::Quote>> fetch_day(
    const std::string& host, std::uint16_t port, const std::string& key,
    std::chrono::milliseconds connect_timeout = std::chrono::milliseconds{2000});

}  // namespace mm::wire
