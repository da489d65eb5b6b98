// Request keys: how an FTM names one client request.
//
// A request is named by its client's host id and the client's request id,
// which every retransmission reuses. The reply log, the kernel's tables and
// the replica envelopes hold and compare these two integers. The text
// "c<client>:<id>" exists only where a key is written out: the replica
// message encoding, which prices and writes a key as that text
// (replica_message.cpp), and log lines.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string_view>

namespace rcs::ftm {

struct RequestKey {
  std::int64_t client{0};
  std::uint64_t id{0};
  /// The record of the request's re-execution that a peer's reply log
  /// keeps beside the request's own reply (A&Duplex recovery,
  /// sync_after_duplex.cpp); its text is "exec:c<client>:<id>".
  bool exec{false};

  /// Numeric order: client, then id. Byte order of the text differs
  /// (c10:1 < c9:1); KeyText orders by that.
  friend bool operator==(const RequestKey&, const RequestKey&) = default;
  friend auto operator<=>(const RequestKey&, const RequestKey&) = default;
};

/// A key's text, formatted into a buffer of its own: no allocation.
class KeyText {
 public:
  explicit KeyText(const RequestKey& key) {
    char* out = buf_;
    char* const end = buf_ + sizeof buf_;
    if (key.exec) {
      std::memcpy(out, kExecPrefix.data(), kExecPrefix.size());
      out += kExecPrefix.size();
    }
    *out++ = 'c';
    out = std::to_chars(out, end, key.client).ptr;
    *out++ = ':';
    out = std::to_chars(out, end, key.id).ptr;
    size_ = static_cast<std::size_t>(out - buf_);
  }

  [[nodiscard]] std::string_view view() const { return {buf_, size_}; }

  /// The length of the key's text, counted without formatting it.
  [[nodiscard]] static constexpr std::size_t size_of(const RequestKey& key) {
    const bool negative = key.client < 0;
    const std::uint64_t client =
        negative ? 0 - static_cast<std::uint64_t>(key.client)
                 : static_cast<std::uint64_t>(key.client);
    return (key.exec ? kExecPrefix.size() : 0) + 2 + (negative ? 1 : 0) +
           digits(client) + digits(key.id);
  }

 private:
  static constexpr std::string_view kExecPrefix = "exec:";

  static constexpr std::size_t digits(std::uint64_t v) {
    std::size_t n = 1;
    while (v >= 10) {
      v /= 10;
      ++n;
    }
    return n;
  }

  // "exec:" + 'c' + 20 characters of int64 + ':' + 20 digits of uint64.
  char buf_[48];
  std::size_t size_{0};
};

/// Byte order of the keys' texts, the order in which a map keyed by them
/// encodes.
[[nodiscard]] inline bool text_less(const RequestKey& a, const RequestKey& b) {
  return KeyText(a).view() < KeyText(b).view();
}

inline std::ostream& operator<<(std::ostream& os, const RequestKey& key) {
  return os << KeyText(key).view();
}

}  // namespace rcs::ftm
