// Zero-copy incremental frame parser for the mmq wire format.
//
// FrameParser consumes arbitrarily chunked byte spans (whatever recv()
// returned) and yields FrameViews pointing INTO the caller's buffer whenever
// a complete frame is available. A frame split across feeds is reassembled in
// a fixed carry buffer sized at construction, so steady-state parsing — and
// decoding a quote from a view — performs zero heap allocations (enforced by
// an operator-new-counting test).
//
// Usage:
//   parser.feed(buf, n);          // previous feed must be fully drained
//   FrameView v;
//   while (parser.next(&v)) { ... decode_quote(v, &q) ... }
//   if (parser.failed()) ...      // corrupt stream; views already emitted
//                                 // remain valid
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "wire/format.hpp"

namespace mm::wire {

// A complete frame. `body` points into the fed buffer (or the parser's carry
// buffer) and is valid until the next call to next() or feed().
struct FrameView {
  MsgType type{};
  const std::uint8_t* body = nullptr;
  std::size_t size = 0;
};

class FrameParser {
 public:
  explicit FrameParser(std::size_t max_body = max_body_bytes);

  // Hand the parser the next chunk. The previous chunk must be fully drained
  // (next() returned false); any partial tail was copied into the carry
  // buffer, so the caller may reuse its buffer immediately after.
  void feed(const std::uint8_t* data, std::size_t size);

  // Emit the next complete frame. Returns false when more bytes are needed
  // (feed again) or the stream is corrupt (check failed()).
  bool next(FrameView* out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  // Stream statistics (frames/bytes accepted so far).
  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  bool header_ok(const std::uint8_t* p, std::size_t* frame_len);
  void fail(const std::string& why);

  std::vector<std::uint8_t> carry_;  // fixed capacity: one max-size frame
  std::size_t carry_size_ = 0;
  bool emitted_from_carry_ = false;  // reset carry on the call AFTER emitting

  const std::uint8_t* data_ = nullptr;  // current fed chunk
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;

  std::size_t max_frame_ = 0;  // type byte + max body
  bool failed_ = false;
  std::string error_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
};

// --- body decoders -------------------------------------------------------
// Each checks the view's type and exact (or minimum) size; on success the
// caller-provided out-param is filled. Quote decoding is allocation-free.

bool decode_quote(const FrameView& v, md::Quote* out);
bool decode_heartbeat(const FrameView& v, std::uint64_t* counter);
bool decode_end_of_day(const FrameView& v, std::uint64_t* quote_count);

struct Hello {
  std::uint64_t session = 0;
  std::uint16_t flags = 0;
  std::string key;
};

// Validates magic and version; allocates only for the key string (once per
// session, never per quote).
Expected<Hello> decode_hello(const FrameView& v);

}  // namespace mm::wire
