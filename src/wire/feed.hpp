// The mmq feed server: one day per TCP session.
//
// A client connects, sends a hello whose key names a day (a md::DayCache
// key), and the server streams that day's quotes back as frames, closing with
// end_of_day. One connection is served at a time — like the repo's
// MetricsServer this is loopback/LAN operator plumbing, not an
// internet-facing daemon. TCP is the only transport: a day either arrives
// whole and in order, or the client reports the truncation (WireQuoteSource
// and fetch_day in quote_source.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "marketdata/types.hpp"
#include "wire/parser.hpp"
#include "wire/socket.hpp"

namespace mm::wire {

// What a client received over one session (WireQuoteSource::stats()).
struct FeedStats {
  std::uint64_t frames = 0;
  std::uint64_t quotes = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t parse_errors = 0;
};

// Resolves a hello key to a day of quotes (same shape as md::DayCache's
// loader, so one lambda can serve both).
using DayResolver =
    std::function<Expected<std::vector<md::Quote>>(const std::string& key)>;

struct TcpFeedConfig {
  std::string host = "127.0.0.1";
  // A heartbeat frame is interleaved every `heartbeat_every` quotes so long
  // days keep the connection visibly alive.
  std::uint64_t heartbeat_every = 4096;
};

class TcpFeedServer {
 public:
  explicit TcpFeedServer(DayResolver resolver, TcpFeedConfig config = {});
  ~TcpFeedServer();

  // Bind (port 0 picks an ephemeral port) and start the accept loop.
  Status start(std::uint16_t port = 0);
  void stop();

  std::uint16_t port() const { return port_; }
  std::uint64_t sessions_served() const { return sessions_.load(); }

  TcpFeedServer(const TcpFeedServer&) = delete;
  TcpFeedServer& operator=(const TcpFeedServer&) = delete;

 private:
  void accept_loop();
  void serve(Socket conn);

  DayResolver resolver_;
  TcpFeedConfig config_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_{0};
};

}  // namespace mm::wire
