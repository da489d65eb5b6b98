// Shared immutable message payload.
//
// A network Message used to own its Value payload, so every duplicate,
// reordered copy and multi-replica fan-out deep-copied the whole Value tree.
// Payload wraps the Value in a refcounted immutable cell together with its
// encoded size (computed once), so forwarding a payload — echoing a request,
// fanning a checkpoint out to N backups, scheduling the delivery closure —
// is a pointer copy. Receivers read the Value in place and keep the handle
// when they hold a message for later; facts about the delivery, such as the
// sender, travel beside the payload (Message::from), never stamped into it.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "rcs/common/value.hpp"

namespace rcs {

class Payload {
 public:
  /// The null payload (a null Value). Keeps Message default-constructible.
  Payload() = default;

  /// Wrap `value`; its encoded size is computed once, here. Explicit so that
  /// overload sets of send(..., Value) / send(..., Payload) stay unambiguous.
  // GCC 12 issues a spurious -Wmaybe-uninitialized for the variant move
  // inside make_shared when this constructor is inlined into callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  explicit Payload(Value value)
      : rep_(std::make_shared<const Rep>(std::move(value))) {}
#pragma GCC diagnostic pop

  [[nodiscard]] const Value& value() const {
    return rep_ ? rep_->value : null_value();
  }
  /// Cached wire size of the payload encoding.
  [[nodiscard]] std::size_t encoded_size() const {
    return rep_ ? rep_->encoded_size : null_encoded_size();
  }

  /// Payloads pass as plain (const) Values wherever one is expected, so
  /// handler bodies read fields without ceremony.
  operator const Value&() const { return value(); }  // NOLINT: by design
  const Value* operator->() const { return &value(); }
  const Value& operator*() const { return value(); }

 private:
  struct Rep {
    explicit Rep(Value v) : value(std::move(v)), encoded_size(value.encoded_size()) {}
    Value value;
    std::size_t encoded_size;
  };

  static const Value& null_value() {
    static const Value kNull;
    return kNull;
  }
  static std::size_t null_encoded_size() {
    static const std::size_t kSize = Value().encoded_size();
    return kSize;
  }

  std::shared_ptr<const Rep> rep_;
};

}  // namespace rcs
