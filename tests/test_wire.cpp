// The mmq wire format's contracts: byte-stable encoding, zero-copy
// incremental parsing at every chunk boundary, robustness against truncated /
// corrupt input, the TCP session round trip, and allocation-freedom of the
// steady-state parse path (global operator-new counting — which is why this
// suite lives in its own executable, same pattern as
// tests/test_corr_alloc.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "wire/feed.hpp"
#include "wire/format.hpp"
#include "wire/parser.hpp"
#include "wire/quote_source.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mm::wire {
namespace {

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

md::Quote make_quote(int i) {
  md::Quote q;
  q.ts_ms = 1204520400000 + i;  // 2008-03-03 09:00 ET, the paper's day
  q.symbol = static_cast<md::SymbolId>(i % 7);
  q.bid = 100.0 + 0.01 * i;
  q.ask = q.bid + 0.02;
  q.bid_size = 100 + i;
  q.ask_size = 200 + i;
  return q;
}

std::vector<md::Quote> make_day(int n) {
  std::vector<md::Quote> day;
  day.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) day.push_back(make_quote(i));
  return day;
}

bool same_quote(const md::Quote& a, const md::Quote& b) {
  return a.ts_ms == b.ts_ms && a.symbol == b.symbol && a.bid == b.bid &&
         a.ask == b.ask && a.bid_size == b.bid_size && a.ask_size == b.ask_size;
}

// --- golden encoding ------------------------------------------------------

TEST(WireFormat, QuoteEncodingIsByteStable) {
  // The exact wire image of one known quote, written out by hand from the
  // format spec. If this test breaks, the protocol version must be bumped.
  md::Quote q;
  q.ts_ms = 0x0102030405060708;
  q.symbol = 0x0A0B0C0D;
  q.bid = 1.5;   // IEEE-754: 0x3FF8000000000000
  q.ask = -2.0;  // IEEE-754: 0xC000000000000000
  q.bid_size = 0x11121314;
  q.ask_size = -2;  // 0xFFFFFFFE two's complement

  FrameWriter w;
  w.quote(q);
  const std::vector<std::uint8_t> expect = {
      0x25, 0x00,  // length = 1 + 36, little-endian
      0x02,        // type = quote
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // ts_ms LE
      0x0D, 0x0C, 0x0B, 0x0A,                          // symbol LE
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // bid
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0,  // ask
      0x14, 0x13, 0x12, 0x11,                          // bid_size LE
      0xFE, 0xFF, 0xFF, 0xFF,                          // ask_size LE
  };
  EXPECT_EQ(w.bytes(), expect);
}

TEST(WireFormat, HelloEncodingIsByteStable) {
  FrameWriter w;
  w.hello(0x1122334455667788, "d", 0x0042);
  const std::vector<std::uint8_t> expect = {
      0x14, 0x00,              // length = 1 + 18 + 1
      0x01,                    // type = hello
      0x4D, 0x4D, 0x51, 0x31,  // magic "MMQ1"
      0x01, 0x00,              // version 1
      0x42, 0x00,              // flags
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // session LE
      0x01, 0x00,              // key_len
      'd',
  };
  EXPECT_EQ(w.bytes(), expect);
}

// --- round trips ----------------------------------------------------------

TEST(WireFormat, AllMessageTypesRoundTrip) {
  FrameWriter w;
  w.hello(7, "synthetic/10/1/0", 3);
  const md::Quote q = make_quote(5);
  w.quote(q);
  w.heartbeat(99);
  w.end_of_day(12345);

  FrameParser p;
  p.feed(w.bytes().data(), w.size());

  FrameView v;
  ASSERT_TRUE(p.next(&v));
  ASSERT_EQ(v.type, MsgType::hello);
  const auto hello = decode_hello(v);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello.value().session, 7u);
  EXPECT_EQ(hello.value().flags, 3u);
  EXPECT_EQ(hello.value().key, "synthetic/10/1/0");

  ASSERT_TRUE(p.next(&v));
  md::Quote back;
  ASSERT_TRUE(decode_quote(v, &back));
  EXPECT_TRUE(same_quote(back, q));

  ASSERT_TRUE(p.next(&v));
  std::uint64_t counter = 0;
  ASSERT_TRUE(decode_heartbeat(v, &counter));
  EXPECT_EQ(counter, 99u);

  ASSERT_TRUE(p.next(&v));
  std::uint64_t count = 0;
  ASSERT_TRUE(decode_end_of_day(v, &count));
  EXPECT_EQ(count, 12345u);

  EXPECT_FALSE(p.next(&v));
  EXPECT_FALSE(p.failed());
  EXPECT_EQ(p.frames(), 4u);
}

// Feeding the stream split into two chunks at EVERY byte boundary must yield
// the identical frame sequence — the carry buffer handles any straddle.
TEST(WireParser, EveryChunkSplitYieldsIdenticalFrames) {
  FrameWriter w;
  w.hello(1, "key");
  for (int i = 0; i < 8; ++i) w.quote(make_quote(i));
  w.heartbeat(4);
  w.end_of_day(8);
  const auto& bytes = w.bytes();

  const auto parse_split = [&](std::size_t at) {
    std::vector<md::Quote> quotes;
    std::uint64_t frames = 0;
    FrameParser p;
    FrameView v;
    for (int half = 0; half < 2; ++half) {
      const std::size_t begin = half == 0 ? 0 : at;
      const std::size_t end = half == 0 ? at : bytes.size();
      p.feed(bytes.data() + begin, end - begin);
      while (p.next(&v)) {
        ++frames;
        if (v.type == MsgType::quote) {
          md::Quote q;
          EXPECT_TRUE(decode_quote(v, &q));
          quotes.push_back(q);
        }
      }
      EXPECT_FALSE(p.failed()) << "split at " << at << ": " << p.error();
    }
    EXPECT_EQ(frames, 11u) << "split at " << at;
    return quotes;
  };

  const std::vector<md::Quote> reference = parse_split(0);
  ASSERT_EQ(reference.size(), 8u);
  for (std::size_t at = 1; at <= bytes.size(); ++at) {
    const auto quotes = parse_split(at);
    ASSERT_EQ(quotes.size(), reference.size()) << "split at " << at;
    for (std::size_t i = 0; i < quotes.size(); ++i)
      EXPECT_TRUE(same_quote(quotes[i], reference[i])) << "split at " << at;
  }
}

TEST(WireParser, ByteAtATimeFeedReassembles) {
  FrameWriter w;
  for (int i = 0; i < 3; ++i) w.quote(make_quote(i));
  FrameParser p;
  FrameView v;
  int quotes = 0;
  for (const std::uint8_t byte : w.bytes()) {
    p.feed(&byte, 1);
    while (p.next(&v)) {
      md::Quote q;
      ASSERT_TRUE(decode_quote(v, &q));
      EXPECT_TRUE(same_quote(q, make_quote(quotes)));
      ++quotes;
    }
    ASSERT_FALSE(p.failed());
  }
  EXPECT_EQ(quotes, 3);
}

// --- robustness -----------------------------------------------------------

TEST(WireParser, TruncatedFinalFrameIsNotAnError) {
  FrameWriter w;
  w.quote(make_quote(0));
  w.quote(make_quote(1));
  FrameParser p;
  p.feed(w.bytes().data(), w.size() - 5);  // second frame cut short
  FrameView v;
  ASSERT_TRUE(p.next(&v));
  EXPECT_FALSE(p.next(&v));
  EXPECT_FALSE(p.failed());  // waiting for more bytes, not corrupt
  EXPECT_EQ(p.frames(), 1u);
}

TEST(WireParser, ZeroLengthFrameFails) {
  const std::uint8_t bad[] = {0x00, 0x00, 0x02};
  FrameParser p;
  p.feed(bad, sizeof(bad));
  FrameView v;
  EXPECT_FALSE(p.next(&v));
  EXPECT_TRUE(p.failed());
}

TEST(WireParser, OversizedLengthFails) {
  std::uint8_t bad[3];
  store_u16(bad, static_cast<std::uint16_t>(1 + max_body_bytes + 1));
  bad[2] = 0x02;
  FrameParser p;
  p.feed(bad, sizeof(bad));
  FrameView v;
  EXPECT_FALSE(p.next(&v));
  EXPECT_TRUE(p.failed());
}

TEST(WireParser, UnknownTypeFails) {
  const std::uint8_t bad[] = {0x01, 0x00, 0x09};
  FrameParser p;
  p.feed(bad, sizeof(bad));
  FrameView v;
  EXPECT_FALSE(p.next(&v));
  EXPECT_TRUE(p.failed());
}

TEST(WireParser, GoodFramesBeforeCorruptionAreEmitted) {
  FrameWriter w;
  w.quote(make_quote(0));
  auto bytes = w.take();
  bytes.push_back(0x01);
  bytes.push_back(0x00);
  bytes.push_back(0xFF);  // unknown type after one good frame
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  FrameView v;
  ASSERT_TRUE(p.next(&v));
  EXPECT_EQ(v.type, MsgType::quote);
  EXPECT_FALSE(p.next(&v));
  EXPECT_TRUE(p.failed());
}

TEST(WireParser, HelloGarbageMagicRejected) {
  FrameWriter w;
  w.hello(1, "key");
  auto bytes = w.take();
  bytes[3] ^= 0xFF;  // corrupt the first magic byte
  FrameParser p;
  p.feed(bytes.data(), bytes.size());
  FrameView v;
  ASSERT_TRUE(p.next(&v));  // framing is intact; the BODY is garbage
  const auto hello = decode_hello(v);
  EXPECT_FALSE(hello.has_value());
}

TEST(WireParser, DecodersRejectWrongTypeAndSize) {
  FrameWriter w;
  w.heartbeat(1);
  FrameParser p;
  p.feed(w.bytes().data(), w.size());
  FrameView v;
  ASSERT_TRUE(p.next(&v));
  md::Quote q;
  EXPECT_FALSE(decode_quote(v, &q));  // wrong type
  std::uint64_t count = 0;
  EXPECT_FALSE(decode_end_of_day(v, &count));
  EXPECT_TRUE(decode_heartbeat(v, &count));

  FrameView short_view = v;
  short_view.size = 4;  // right type, truncated body
  EXPECT_FALSE(decode_heartbeat(short_view, &count));
}

// --- TCP session ----------------------------------------------------------

TEST(WireTcp, QuoteSourceStreamsTheSubscribedDay) {
  const auto day = make_day(500);
  TcpFeedConfig config;
  config.heartbeat_every = 100;  // interleave heartbeats inside a short day
  TcpFeedServer server(
      [&](const std::string& key) -> Expected<std::vector<md::Quote>> {
        if (key != "day-key") return Error(Errc::not_found, "unknown key " + key);
        return day;
      },
      config);
  ASSERT_TRUE(server.start().has_value());

  auto source = WireQuoteSource::connect("127.0.0.1", server.port(), "day-key");
  ASSERT_TRUE(source.has_value()) << source.error().to_string();
  std::vector<md::Quote> got;
  while (const auto q = source.value()->next()) got.push_back(*q);
  EXPECT_TRUE(source.value()->done());
  EXPECT_FALSE(source.value()->failed()) << source.value()->error();
  ASSERT_EQ(got.size(), day.size());
  for (std::size_t i = 0; i < day.size(); ++i)
    EXPECT_TRUE(same_quote(got[i], day[i]));
  EXPECT_GT(source.value()->stats().heartbeats, 0u);
  server.stop();
}

TEST(WireTcp, FetchDayMatchesAndUnknownKeyFails) {
  const auto day = make_day(64);
  TcpFeedServer server([&](const std::string& key)
                           -> Expected<std::vector<md::Quote>> {
    if (key != "good") return Error(Errc::not_found, "unknown key " + key);
    return day;
  });
  ASSERT_TRUE(server.start().has_value());

  const auto got = fetch_day("127.0.0.1", server.port(), "good");
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  ASSERT_EQ(got.value().size(), day.size());
  for (std::size_t i = 0; i < day.size(); ++i)
    EXPECT_TRUE(same_quote(got.value()[i], day[i]));

  EXPECT_FALSE(fetch_day("127.0.0.1", server.port(), "missing").has_value());
  // Only successfully streamed days count as served sessions; the rejected
  // key closes without end_of_day and is not counted.
  EXPECT_EQ(server.sessions_served(), 1u);
  server.stop();
}

// --- allocation freedom ---------------------------------------------------

// Parsing + decoding a pre-encoded stream in chunks performs ZERO heap
// allocations: views point into the fed buffer, straddles land in the fixed
// carry buffer, decode fills caller-owned out-params.
TEST(WireAlloc, SteadyStateParseIsAllocationFree) {
  FrameWriter w;
  constexpr int kQuotes = 4096;
  for (int i = 0; i < kQuotes; ++i) w.quote(make_quote(i));
  const auto& bytes = w.bytes();

  FrameParser parser;
  {
    // Warm the parser (sizes the carry buffer) on a prefix with a straddle.
    FrameView v;
    parser.feed(bytes.data(), 41);
    while (parser.next(&v)) {
    }
  }

  FrameParser p;  // fresh parser, but its carry is allocated at construction
  const std::size_t chunk = 1499;  // never frame-aligned: constant straddling
  md::Quote q;
  FrameView v;
  std::uint64_t decoded = 0;

  const auto before = allocations();
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - at);
    p.feed(bytes.data() + at, n);
    while (p.next(&v)) {
      ASSERT_TRUE(decode_quote(v, &q));
      ++decoded;
    }
    ASSERT_FALSE(p.failed());
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(decoded, static_cast<std::uint64_t>(kQuotes));
}

// Encoding into a warmed FrameWriter is likewise allocation-free.
TEST(WireAlloc, SteadyStateEncodeIsAllocationFree) {
  FrameWriter w;
  for (int i = 0; i < 1024; ++i) w.quote(make_quote(i));
  w.clear();  // keeps capacity

  const auto before = allocations();
  for (int i = 0; i < 1024; ++i) w.quote(make_quote(i));
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace mm::wire
