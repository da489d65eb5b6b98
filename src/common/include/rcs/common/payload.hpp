// Shared immutable message payload.
//
// A network Message used to own its Value payload, so every duplicate,
// reordered copy and multi-replica fan-out deep-copied the whole Value tree.
// Payload holds one refcounted immutable cell (PayloadCell, value.hpp), so
// forwarding a payload — echoing a request, fanning a checkpoint out to N
// backups, scheduling the delivery closure — is a pointer copy. The cell
// holds either a Value (the same ValueCell that Value::shared makes, so a
// Value that already is a cell, such as a reply the reply log also holds,
// becomes a payload without a copy) or a typed message of any other type T
// (Payload::typed), with the exact size of its wire encoding, computed once.
// The network reads only encoded_size(); receivers read the Value or the
// typed message in place, after a tag check, and keep the handle when they
// hold a message for later. Facts about the delivery, such as the sender,
// travel beside the payload (Message::from), never stamped into it.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "rcs/common/value.hpp"

namespace rcs {

/// The cell of a typed payload: a T and its wire size.
template <class T>
struct TypedCell : PayloadCell {
  TypedCell(T m, std::size_t size)
      : PayloadCell{&payload_tag<T>, size}, message(std::move(m)) {}
  T message;
};

class Payload {
 public:
  /// The null payload (a null Value). Keeps Message default-constructible.
  Payload() = default;

  /// Wrap `value` in a cell (a cell is adopted as it is). Explicit so that
  /// overload sets of send(..., Value) / send(..., Payload) stay unambiguous.
  explicit Payload(Value value)
      : cell_(std::get<Value::Cell>(Value::shared(std::move(value)).data_)) {}

  /// A payload holding `message`, whose encoding takes `encoded_size` bytes.
  template <class T>
  [[nodiscard]] static Payload typed(T message, std::size_t encoded_size) {
    static_assert(!std::is_same_v<T, Value>, "a Value payload is Payload(v)");
    Payload payload;
    payload.cell_ =
        std::make_shared<const TypedCell<T>>(std::move(message), encoded_size);
    return payload;
  }

  /// The typed message this payload holds, or null if it holds another type.
  template <class T>
  [[nodiscard]] const T* get_if() const {
    return cell_ && cell_->tag == &payload_tag<T>
               ? &static_cast<const TypedCell<T>&>(*cell_).message
               : nullptr;
  }
  /// The typed message; throws ValueError if the payload holds another type.
  template <class T>
  [[nodiscard]] const T& get() const {
    if (const T* message = get_if<T>()) return *message;
    type_mismatch();
  }

  /// The Value; throws ValueError if the payload holds a typed message.
  [[nodiscard]] const Value& value() const {
    if (!cell_) return null_value();
    if (cell_->tag != &payload_tag<Value>) type_mismatch();
    return static_cast<const ValueCell&>(*cell_).value;
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
  [[noreturn]] static void type_mismatch();

  std::shared_ptr<const PayloadCell> cell_;
};

}  // namespace rcs
