// Byte-level serialization for message payloads.
//
// Packer appends POD values, strings and vectors to a byte buffer; Unpacker
// reads them back in the same order. Used by dagflow's typed ports and the
// engine's inter-component records. All encoding is native-endian — mpmini
// ranks live in a single process, so there is no cross-architecture concern
// (a real-MPI port would swap this layer for MPI datatypes).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace mm::mpi {

class Packer {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put requires a trivially copyable type");
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
    buffer_.insert(buffer_.end(), bytes, bytes + s.size());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put_vector requires trivially copyable elements");
    put<std::uint64_t>(v.size());
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
    buffer_.insert(buffer_.end(), bytes, bytes + v.size() * sizeof(T));
  }

  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }
  // Empty the buffer but keep its capacity, so a Packer reused across
  // messages of a steady size stops allocating after the first.
  void clear() { buffer_.clear(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class Unpacker {
 public:
  explicit Unpacker(const std::vector<std::uint8_t>& buffer) : buffer_(buffer) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get requires a trivially copyable type");
    MM_ASSERT_MSG(offset_ + sizeof(T) <= buffer_.size(), "Unpacker: payload underrun");
    T value;
    std::memcpy(&value, buffer_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    MM_ASSERT_MSG(n <= buffer_.size() - offset_, "Unpacker: string underrun");
    std::string s(reinterpret_cast<const char*>(buffer_.data() + offset_), n);
    offset_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    std::vector<T> v;
    get_vector_into(v);
    return v;
  }

  // get_vector into the caller's storage: reuses `out`'s capacity, so a
  // decode loop over same-sized messages is allocation-free.
  template <typename T>
  void get_vector_into(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get_vector requires trivially copyable elements");
    const auto n = get<std::uint64_t>();
    MM_ASSERT_MSG(n <= (buffer_.size() - offset_) / sizeof(T), "Unpacker: vector underrun");
    out.resize(n);
    if (n > 0) std::memcpy(out.data(), buffer_.data() + offset_, n * sizeof(T));
    offset_ += n * sizeof(T);
  }

  bool exhausted() const { return offset_ == buffer_.size(); }
  std::size_t remaining() const { return buffer_.size() - offset_; }

 private:
  const std::vector<std::uint8_t>& buffer_;
  std::size_t offset_ = 0;
};

}  // namespace mm::mpi
