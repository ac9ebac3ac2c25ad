#include "wire/parser.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"

namespace mm::wire {

FrameParser::FrameParser(std::size_t max_body)
    : max_frame_(1 + max_body) {
  // One max-size frame is the most that can ever straddle a feed boundary:
  // the carry fills only until the frame completes, then drains before the
  // next partial tail is copied in. Reserved once, never regrown.
  carry_.resize(frame_header_bytes + max_frame_);
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  MM_ASSERT_MSG(cursor_ == size_, "FrameParser::feed: previous chunk not drained");
  data_ = data;
  size_ = size;
  cursor_ = 0;
}

bool FrameParser::header_ok(const std::uint8_t* p, std::size_t* frame_len) {
  const std::uint16_t len = load_u16(p);
  if (len == 0) {
    fail("zero-length frame");
    return false;
  }
  if (len > max_frame_) {
    fail(format("oversized frame: length %u exceeds limit %zu", unsigned{len},
                max_frame_));
    return false;
  }
  const std::uint8_t type = p[2];
  if (type < static_cast<std::uint8_t>(MsgType::hello) ||
      type > static_cast<std::uint8_t>(MsgType::end_of_day)) {
    fail(format("unknown message type %u", unsigned{type}));
    return false;
  }
  *frame_len = len;
  return true;
}

void FrameParser::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
}

bool FrameParser::next(FrameView* out) {
  if (failed_) return false;
  if (emitted_from_carry_) {
    // The view handed out last call pointed into the carry buffer; it is
    // dead now, so the carry can be reused.
    carry_size_ = 0;
    emitted_from_carry_ = false;
  }

  if (carry_size_ > 0) {
    // A frame is straddling a feed boundary. Top the carry up until the
    // header, then the whole frame, is present.
    std::size_t frame_len = 0;
    if (carry_size_ < frame_header_bytes) {
      const std::size_t want = frame_header_bytes - carry_size_;
      const std::size_t take = std::min(want, size_ - cursor_);
      std::memcpy(carry_.data() + carry_size_, data_ + cursor_, take);
      carry_size_ += take;
      cursor_ += take;
      if (carry_size_ < frame_header_bytes) return false;  // still starved
    }
    if (!header_ok(carry_.data(), &frame_len)) return false;
    // The length prefix already counts the type byte, so the frame occupies
    // the two prefix bytes plus frame_len on the wire.
    const std::size_t total = (frame_header_bytes - 1) + frame_len;
    if (carry_size_ < total) {
      const std::size_t want = total - carry_size_;
      const std::size_t take = std::min(want, size_ - cursor_);
      std::memcpy(carry_.data() + carry_size_, data_ + cursor_, take);
      carry_size_ += take;
      cursor_ += take;
      if (carry_size_ < total) return false;
    }
    out->type = static_cast<MsgType>(carry_[2]);
    out->body = carry_.data() + frame_header_bytes;
    out->size = frame_len - 1;
    emitted_from_carry_ = true;
    ++frames_;
    bytes_ += total;
    return true;
  }

  // Common case: parse straight out of the fed buffer, zero copies.
  const std::size_t avail = size_ - cursor_;
  if (avail < frame_header_bytes) {
    if (avail > 0) {
      std::memcpy(carry_.data(), data_ + cursor_, avail);
      carry_size_ = avail;
      cursor_ = size_;
    }
    return false;
  }
  const std::uint8_t* p = data_ + cursor_;
  std::size_t frame_len = 0;
  if (!header_ok(p, &frame_len)) return false;
  const std::size_t total = (frame_header_bytes - 1) + frame_len;
  if (avail < total) {
    std::memcpy(carry_.data(), p, avail);
    carry_size_ = avail;
    cursor_ = size_;
    return false;
  }
  out->type = static_cast<MsgType>(p[2]);
  out->body = p + frame_header_bytes;
  out->size = frame_len - 1;
  cursor_ += total;
  ++frames_;
  bytes_ += total;
  return true;
}

bool decode_quote(const FrameView& v, md::Quote* out) {
  if (v.type != MsgType::quote || v.size != quote_body_bytes) return false;
  const std::uint8_t* p = v.body;
  out->ts_ms = static_cast<md::TimeMs>(load_u64(p));
  out->symbol = load_u32(p + 8);
  out->bid = load_f64(p + 12);
  out->ask = load_f64(p + 20);
  out->bid_size = static_cast<std::int32_t>(load_u32(p + 28));
  out->ask_size = static_cast<std::int32_t>(load_u32(p + 32));
  return true;
}

bool decode_heartbeat(const FrameView& v, std::uint64_t* counter) {
  if (v.type != MsgType::heartbeat || v.size != 8) return false;
  *counter = load_u64(v.body);
  return true;
}

bool decode_end_of_day(const FrameView& v, std::uint64_t* quote_count) {
  if (v.type != MsgType::end_of_day || v.size != 8) return false;
  *quote_count = load_u64(v.body);
  return true;
}

Expected<Hello> decode_hello(const FrameView& v) {
  if (v.type != MsgType::hello)
    return Error(Errc::parse_error, "wire: frame is not a hello");
  if (v.size < 18)
    return Error(Errc::parse_error, "wire: hello body truncated");
  const std::uint8_t* p = v.body;
  if (load_u32(p) != magic)
    return Error(Errc::parse_error, "wire: bad magic in hello");
  const std::uint16_t ver = load_u16(p + 4);
  if (ver != version)
    return Error(Errc::parse_error,
                 format("wire: unsupported version %u", unsigned{ver}));
  Hello h;
  h.flags = load_u16(p + 6);
  h.session = load_u64(p + 8);
  const std::uint16_t key_len = load_u16(p + 16);
  if (18 + std::size_t{key_len} != v.size)
    return Error(Errc::parse_error, "wire: hello key length mismatch");
  h.key.assign(reinterpret_cast<const char*>(p + 18), key_len);
  return h;
}

}  // namespace mm::wire
