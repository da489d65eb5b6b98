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

namespace {

// XXH64 primes and helpers, as in the xxHash specification.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

template <typename Word>
Word read_le(const std::uint8_t* p) {
  Word v{};
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof v == 8) v = __builtin_bswap64(v);
    else v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

std::uint64_t xxh64_merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ xxh64_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h = kPrime5;
  if (data.size() >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh64_round(v1, read_le<std::uint64_t>(p));
      v2 = xxh64_round(v2, read_le<std::uint64_t>(p + 8));
      v3 = xxh64_round(v3, read_le<std::uint64_t>(p + 16));
      v4 = xxh64_round(v4, read_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh64_merge(xxh64_merge(xxh64_merge(xxh64_merge(h, v1), v2), v3), v4);
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xxh64_round(0, read_le<std::uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (read_le<std::uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace rcs
