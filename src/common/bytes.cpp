#include "rcs/common/bytes.hpp"

#include <bit>
#include <cstring>

#include "rcs/common/error.hpp"

namespace rcs {

const Bytes& SharedBytes::empty_bytes() {
  static const Bytes empty;
  return empty;
}

void ByteWriter::write_u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_string(std::string_view s) {
  write_varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::write_bytes(const Bytes& b) {
  write_varint(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void ByteReader::require(std::size_t n) const {
  if (buffer_.size() - pos_ < n) {
    throw ValueError("ByteReader: truncated buffer");
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return buffer_[pos_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buffer_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buffer_[pos_++]) << (8 * i);
  return v;
}

std::int64_t ByteReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    require(1);
    const std::uint8_t byte = buffer_[pos_++];
    if (shift >= 64) throw ValueError("ByteReader: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string ByteReader::read_string() {
  const auto n = read_varint();
  require(n);
  std::string s(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes ByteReader::read_bytes() {
  const auto n = read_varint();
  require(n);
  Bytes b(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
          buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

std::uint64_t fnv1a(const Bytes& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace rcs
