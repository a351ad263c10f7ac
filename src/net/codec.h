// Binary wire codec: little-endian, length-prefixed strings, bounds-checked
// reads.  The simulator passes messages by reference (no encoding on the
// hot path); this codec is the serialization layer for running the
// protocol over real sockets, and core/codec.{h,cc} uses it to give every
// RDP message an exact wire representation (round-trip tested).
//
// A structure declares its wire layout once, as fields(): std::tie of its
// encoded members in wire order.  One put overload per field type writes a
// value to a sink — a Writer, the core codec's encoder, or a Sizer that only
// counts — so a size is the same walk as an encoding, without the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/ids.h"

namespace rdp::net {

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(value); }
  void u16(std::uint16_t value) { append(&value, sizeof(value)); }
  void u32(std::uint32_t value) { append(&value, sizeof(value)); }
  void u64(std::uint64_t value) { append(&value, sizeof(value)); }
  void i32(std::int32_t value) { append(&value, sizeof(value)); }
  void i64(std::int64_t value) { append(&value, sizeof(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }

  void str(std::string_view value) {
    if (value.size() > UINT32_MAX) throw CodecError("string too long");
    u32(static_cast<std::uint32_t>(value.size()));
    buffer_.insert(buffer_.end(), value.begin(), value.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buffer_;
  }

 private:
  void append(const void* data, std::size_t size) {
    const auto* begin = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), begin, begin + size);
  }
  std::vector<std::uint8_t> buffer_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    require(1);
    return data_[position_++];
  }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }
  std::int64_t i64() { return read<std::int64_t>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t length = u32();
    require(length);
    std::string out(reinterpret_cast<const char*>(data_ + position_), length);
    position_ += length;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - position_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + position_, sizeof(T));
    position_ += sizeof(T);
    return value;
  }
  void require(std::size_t bytes) const {
    if (size_ - position_ < bytes) throw CodecError("buffer underflow");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t position_ = 0;
};

// Counts the bytes a Writer would append, for sizes without a buffer.
class Sizer {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void i32(std::int32_t) { size_ += 4; }
  void i64(std::int64_t) { size_ += 8; }
  void boolean(bool) { size_ += 1; }
  void str(std::string_view value) { size_ += 4 + value.size(); }
  // A nested message travels as a u32 length and its encoding.
  template <typename Inner>
  void message(const Inner& inner) {
    size_ += 4 + inner.encoded_size();
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

// --- One put per field type, to any sink ------------------------------------

template <typename Sink>
void put(Sink& out, bool value) {
  out.boolean(value);
}
template <typename Sink>
void put(Sink& out, std::uint32_t value) {
  out.u32(value);
}
template <typename Sink>
void put(Sink& out, std::uint64_t value) {
  out.u64(value);
}
template <typename Sink>
void put(Sink& out, std::int32_t value) {
  out.i32(value);
}
template <typename Sink>
void put(Sink& out, std::int64_t value) {
  out.i64(value);
}
template <typename Sink>
void put(Sink& out, const std::string& value) {
  out.str(value);
}
template <typename Sink, typename Tag>
void put(Sink& out, common::Id<Tag> id) {
  out.u32(id.value());
}
template <typename Sink>
void put(Sink& out, common::RequestId request) {
  out.u32(request.mh().value());
  out.u32(request.seq());
}
// Message tags and protocol kinds: one byte each.
template <typename Sink, typename Enum>
  requires std::is_enum_v<Enum>
void put(Sink& out, Enum value) {
  static_assert(sizeof(Enum) == 1);
  out.u8(static_cast<std::uint8_t>(value));
}
// A carried message (the ARQ frame's payload): the sink decides how to nest
// it, so the ARQ layer stays oblivious to the application vocabulary.
template <typename Sink, typename Inner>
void put(Sink& out, const std::shared_ptr<const Inner>& inner) {
  out.message(*inner);
}

// --- Structures: a fields() declaration, or a vector of them ---------------

template <typename T>
concept Declared = requires(const T& value) { value.fields(); };

// Declared ahead: a structure's fields may be vectors of structures.
template <typename Sink, Declared T>
void put(Sink& out, const T& value);
template <typename Sink, typename T>
void put(Sink& out, const std::vector<T>& items);

template <typename Sink, Declared T>
void put(Sink& out, const T& value) {
  std::apply([&out](const auto&... field) { (put(out, field), ...); },
             value.fields());
}

template <typename Sink, typename T>
void put(Sink& out, const std::vector<T>& items) {
  out.u32(static_cast<std::uint32_t>(items.size()));
  for (const T& item : items) put(out, item);
}

// The encoded size of `value`'s fields(), with no buffer and no allocation.
template <Declared T>
[[nodiscard]] std::size_t encoded_size(const T& value) {
  Sizer sizer;
  put(sizer, value);
  return sizer.size();
}

}  // namespace rdp::net
