// Versioned little-endian binary quote wire format (the "mmq" protocol).
//
// The format is ITCH-style: a stream of length-prefixed frames, each carrying
// one message. All integers are little-endian regardless of host order, and
// doubles travel as the LE bytes of their IEEE-754 bit pattern, so the
// encoding is byte-stable across machines (asserted by a golden test).
//
//   frame   := u16 length | u8 type | body[length - 1]
//              (`length` counts the type byte plus the body, never the
//               length field itself — an empty body means length == 1)
//
//   hello      (type 1): u32 magic | u16 version | u16 flags | u64 session
//                        | u16 key_len | key bytes        — opens a session;
//                        over TCP the key names the day the client subscribes
//                        to (a md::DayCache key), and the server streams that
//                        day back.
//   quote      (type 2): i64 ts_ms | u32 symbol | f64 bid | f64 ask
//                        | i32 bid_size | i32 ask_size    — 36-byte body, a
//                        bitwise image of md::Quote's fields.
//   heartbeat  (type 3): u64 counter                      — keep-alive.
//   end_of_day (type 4): u64 quote_count                  — closes the day;
//                        the count lets receivers detect a truncated stream.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "marketdata/types.hpp"

namespace mm::wire {

// "MMQ1" when read as ASCII bytes on the wire (stored little-endian).
inline constexpr std::uint32_t magic = 0x31514D4Du;
inline constexpr std::uint16_t version = 1;

enum class MsgType : std::uint8_t {
  hello = 1,
  quote = 2,
  heartbeat = 3,
  end_of_day = 4,
};

inline constexpr std::size_t frame_header_bytes = 3;  // u16 length + u8 type
inline constexpr std::size_t quote_body_bytes = 36;
// Largest body a conforming sender may emit (hello keys are the only
// variable-length payload); parsers reject anything bigger as corruption.
inline constexpr std::size_t max_body_bytes = 1024;
// Hello fixed fields are 18 bytes (magic 4, version 2, flags 2, session 8,
// key_len 2); the key fills the rest of the largest legal body.
inline constexpr std::size_t max_key_bytes = max_body_bytes - 18;

// --- little-endian primitive access -------------------------------------
// Byte-by-byte stores/loads: endian-correct everywhere, and compilers fold
// them into single moves on little-endian hosts.

inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline void store_f64(std::uint8_t* p, double v) {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}

inline double load_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(load_u64(p));
}

// --- encoding ------------------------------------------------------------

// Appends frames to an owned buffer. One writer instance is reused per
// connection/day: `clear()` keeps the capacity, so steady-state encoding
// allocates nothing.
class FrameWriter {
 public:
  void hello(std::uint64_t session, std::string_view key, std::uint16_t flags = 0) {
    MM_ASSERT_MSG(key.size() <= max_key_bytes, "wire: hello key too long");
    std::uint8_t* p = begin_frame(MsgType::hello, 18 + key.size());
    store_u32(p, magic);
    store_u16(p + 4, version);
    store_u16(p + 6, flags);
    store_u64(p + 8, session);
    store_u16(p + 16, static_cast<std::uint16_t>(key.size()));
    std::memcpy(p + 18, key.data(), key.size());
  }

  void quote(const md::Quote& q) {
    std::uint8_t* p = begin_frame(MsgType::quote, quote_body_bytes);
    store_u64(p, static_cast<std::uint64_t>(q.ts_ms));
    store_u32(p + 8, q.symbol);
    store_f64(p + 12, q.bid);
    store_f64(p + 20, q.ask);
    store_u32(p + 28, static_cast<std::uint32_t>(q.bid_size));
    store_u32(p + 32, static_cast<std::uint32_t>(q.ask_size));
  }

  void heartbeat(std::uint64_t counter) {
    std::uint8_t* p = begin_frame(MsgType::heartbeat, 8);
    store_u64(p, counter);
  }

  void end_of_day(std::uint64_t quote_count) {
    std::uint8_t* p = begin_frame(MsgType::end_of_day, 8);
    store_u64(p, quote_count);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::uint8_t* begin_frame(MsgType type, std::size_t body) {
    const std::size_t at = buf_.size();
    buf_.resize(at + frame_header_bytes + body);
    std::uint8_t* p = buf_.data() + at;
    store_u16(p, static_cast<std::uint16_t>(1 + body));
    p[2] = static_cast<std::uint8_t>(type);
    return p + frame_header_bytes;
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace mm::wire
