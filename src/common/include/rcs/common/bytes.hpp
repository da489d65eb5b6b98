// Byte buffers, a small binary codec and the checksum.
//
// Checkpoints, messages and deployable component packages are serialized to
// Bytes so the simulated network can account for their size (bandwidth is one
// of the paper's R parameters). Encoding is little-endian with varint lengths.
// xxh64 is the only checksum: a fixed 8-byte word wherever it travels, so
// the choice of hash changes no message or package size.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rcs {

using Bytes = std::vector<std::uint8_t>;

/// An immutable byte buffer held by shared handle. Copying a SharedBytes
/// bumps a reference count and copies no byte; nothing can write through
/// the handle, so every holder sees the same bytes for as long as it holds
/// them. Large blobs (component artifacts, encoded packages) travel through
/// Values and packages this way. Equality compares contents.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes bytes)  // NOLINT: implicit by design
      : buffer_(std::make_shared<const Bytes>(std::move(bytes))) {}

  [[nodiscard]] const Bytes& bytes() const {
    return buffer_ ? *buffer_ : empty_bytes();
  }
  [[nodiscard]] std::size_t size() const { return bytes().size(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.buffer_ == b.buffer_ || a.bytes() == b.bytes();
  }

 private:
  [[nodiscard]] static const Bytes& empty_bytes();

  std::shared_ptr<const Bytes> buffer_;
};

/// Appends primitive values to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buffer_(std::move(initial)) {}

  /// Pre-size the buffer for `n` more bytes (single allocation for encodes
  /// whose size is known up front, e.g. Value::encode).
  void reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_varint(std::uint64_t v);
  void write_string(std::string_view s);
  void write_bytes(const Bytes& b);

  [[nodiscard]] const Bytes& buffer() const { return buffer_; }
  /// Empty the buffer, keeping its capacity for the next encode.
  void clear() { buffer_.clear(); }
  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Reads primitive values back; throws ValueError on truncation.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buffer) : buffer_(buffer) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::uint64_t read_varint();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] Bytes read_bytes();

  [[nodiscard]] bool at_end() const { return pos_ == buffer_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buffer_.size() - pos_; }

 private:
  void require(std::size_t n) const;

  const Bytes& buffer_;
  std::size_t pos_{0};
};

/// XXH64 of `data` with seed 0, per the public xxHash specification: the one
/// checksum of the code base. It verifies package entries on every install,
/// seals application results, and digests results that replicas compare.
/// It detects accidental corruption; it is not a cryptographic hash.
[[nodiscard]] std::uint64_t xxh64(std::span<const std::uint8_t> data);

}  // namespace rcs
