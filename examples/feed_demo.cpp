// Wire-format feed demo: one synthetic trading day served over TCP.
//
// A TcpFeedServer resolves day keys to quotes; a WireQuoteSource connects,
// subscribes with a hello, and drains the framed stream through the
// zero-copy parser. The demo asserts the received day is quote-for-quote
// identical to the served one.
//
// Prints FEED_DEMO_OK and exits 0 when the day arrived intact; exits 1
// otherwise. CI runs this as part of the transport-smoke job.
#include <cstdio>
#include <string>
#include <vector>

#include "marketdata/generator.hpp"
#include "marketdata/symbols.hpp"
#include "wire/feed.hpp"
#include "wire/quote_source.hpp"

namespace {

using namespace mm;

// Field-wise compare: md::Quote has padding, so memcmp would read junk.
bool same_day(const std::vector<md::Quote>& a, const std::vector<md::Quote>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const md::Quote& x = a[i];
    const md::Quote& y = b[i];
    if (x.ts_ms != y.ts_ms || x.symbol != y.symbol || x.bid != y.bid ||
        x.ask != y.ask || x.bid_size != y.bid_size || x.ask_size != y.ask_size)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  // One deterministic synthetic day, same generator the pipeline uses.
  const md::Universe universe = md::make_universe(8);
  md::GeneratorConfig generator;
  generator.seed = 7;
  generator.quote_rate = 0.15;
  const md::SyntheticDay synthetic(universe, generator, 0);
  const std::vector<md::Quote> day = synthetic.quotes();
  std::printf("serving %zu quotes across %zu symbols\n", day.size(),
              universe.sector.size());

  // Subscribe by key, stream, end_of_day.
  wire::TcpFeedServer server(
      [&](const std::string& key) -> Expected<std::vector<md::Quote>> {
        if (key != "demo/day0")
          return Error(Errc::not_found, "unknown key " + key);
        return day;
      });
  if (auto started = server.start(); !started.has_value()) {
    std::fprintf(stderr, "tcp server start failed: %s\n",
                 started.error().message.c_str());
    return 1;
  }
  auto source = wire::WireQuoteSource::connect("127.0.0.1", server.port(),
                                               "demo/day0");
  if (!source.has_value()) {
    std::fprintf(stderr, "tcp connect failed: %s\n",
                 source.error().message.c_str());
    return 1;
  }
  std::vector<md::Quote> via_tcp;
  via_tcp.reserve(day.size());
  while (const auto q = source.value()->next()) via_tcp.push_back(*q);
  if (source.value()->failed() || !same_day(day, via_tcp)) {
    std::fprintf(stderr, "tcp stream mismatch: %s\n",
                 source.value()->error().c_str());
    return 1;
  }
  const auto& tcp_stats = source.value()->stats();
  std::printf("tcp: %llu quotes, %llu heartbeats, session %llu\n",
              static_cast<unsigned long long>(tcp_stats.quotes),
              static_cast<unsigned long long>(tcp_stats.heartbeats),
              static_cast<unsigned long long>(source.value()->session()));
  server.stop();

  std::printf("FEED_DEMO_OK\n");
  return 0;
}
