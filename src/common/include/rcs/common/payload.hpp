// Shared immutable message payload.
//
// A network Message used to own its Value payload, so every duplicate,
// reordered copy and multi-replica fan-out deep-copied the whole Value tree.
// Payload holds the Value in the same refcounted immutable cell that
// Value::shared makes (ValueCell: the Value and its encoded size, computed
// once), so forwarding a payload — echoing a request, fanning a checkpoint
// out to N backups, scheduling the delivery closure — is a pointer copy, and
// a Value that already is a cell (a reply the reply log also holds) becomes
// a payload without a copy. Receivers read the Value in place and keep the
// handle when they hold a message for later; facts about the delivery, such
// as the sender, travel beside the payload (Message::from), never stamped
// into it.
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

  /// Wrap `value` in a cell (a cell is adopted as it is). Explicit so that
  /// overload sets of send(..., Value) / send(..., Payload) stay unambiguous.
  explicit Payload(Value value)
      : cell_(std::get<Value::Cell>(Value::shared(std::move(value)).data_)) {}

  [[nodiscard]] const Value& value() const {
    return cell_ ? cell_->value : null_value();
  }
  /// Cached wire size of the payload encoding.
  [[nodiscard]] std::size_t encoded_size() const {
    return cell_ ? cell_->encoded_size : null_encoded_size();
  }

  /// Payloads pass as plain (const) Values wherever one is expected, so
  /// handler bodies read fields without ceremony.
  operator const Value&() const { return value(); }  // NOLINT: by design
  const Value* operator->() const { return &value(); }
  const Value& operator*() const { return value(); }

 private:
  static const Value& null_value() {
    static const Value kNull;
    return kNull;
  }
  static std::size_t null_encoded_size() {
    static const std::size_t kSize = Value().encoded_size();
    return kSize;
  }

  Value::Cell cell_;
};

}  // namespace rcs
