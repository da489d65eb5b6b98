// Dynamic value model.
//
// The reflective component layer dispatches operations dynamically
// (invoke(op, Value) -> Value) so that reconfiguration scripts can rewire
// assemblies at runtime without the C++ type system pinning the architecture;
// Value is the argument/result type of that dynamic plane. It also backs
// component properties, checkpoints, and network message payloads.
//
// A Value is null, a bool, an int64, a double, a string, a byte blob, a list,
// or a string-keyed map. Values serialize to Bytes with a stable binary
// encoding (used for checkpoints and for sizing simulated network traffic).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "rcs/common/bytes.hpp"

namespace rcs {

class Value;

using ValueList = std::vector<Value>;
using ValueMap = std::map<std::string, Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull = 0,
    kBool = 1,
    kInt = 2,
    kDouble = 3,
    kString = 4,
    kBytes = 5,
    kList = 6,
    kMap = 7,
  };

  Value() = default;
  Value(std::nullptr_t) {}                 // NOLINT: implicit by design
  Value(bool v) : data_(v) {}              // NOLINT
  Value(std::int64_t v) : data_(v) {}      // NOLINT
  Value(int v) : data_(std::int64_t{v}) {}           // NOLINT
  Value(unsigned v) : data_(std::int64_t{v}) {}      // NOLINT
  Value(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}            // NOLINT
  Value(std::string v) : data_(std::move(v)) {}      // NOLINT
  Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
  Value(const char* v) : data_(std::string(v)) {}    // NOLINT
  Value(Bytes v) : data_(std::move(v)) {}  // NOLINT
  Value(ValueList v) : data_(std::move(v)) {}        // NOLINT
  Value(ValueMap v) : data_(std::move(v)) {}         // NOLINT

  [[nodiscard]] static Value list() { return Value(ValueList{}); }
  [[nodiscard]] static Value map() { return Value(ValueMap{}); }

  [[nodiscard]] Type type() const { return static_cast<Type>(data_.index()); }
  [[nodiscard]] static const char* type_name(Type t);
  [[nodiscard]] const char* type_name() const { return type_name(type()); }

  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type() == Type::kDouble; }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_bytes() const { return type() == Type::kBytes; }
  [[nodiscard]] bool is_list() const { return type() == Type::kList; }
  [[nodiscard]] bool is_map() const { return type() == Type::kMap; }

  // Typed accessors; throw ValueError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts int
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Bytes& as_bytes() const;
  [[nodiscard]] const ValueList& as_list() const;
  [[nodiscard]] ValueList& as_list();
  [[nodiscard]] const ValueMap& as_map() const;
  [[nodiscard]] ValueMap& as_map();

  // --- Map helpers -----------------------------------------------------
  [[nodiscard]] bool has(const std::string& key) const;
  /// Member lookup; throws ValueError if not a map or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Member lookup with default for missing keys (still throws if not map).
  [[nodiscard]] Value get_or(const std::string& key, Value fallback) const;
  /// Insert/overwrite a member. A null Value silently becomes a map first.
  Value& set(const std::string& key, Value v);

  // --- List helpers ----------------------------------------------------
  Value& push_back(Value v);
  [[nodiscard]] const Value& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;  // list or map element count

  // --- Codec -----------------------------------------------------------
  /// Lists and maps nest at most this deep in a decoded Value.
  static constexpr int kMaxDecodeDepth = 128;

  void encode(ByteWriter& w) const;
  [[nodiscard]] Bytes encode() const;
  /// Decoding fails closed: malformed or hostile input (truncation, a bad
  /// tag, an element count the input cannot hold, nesting beyond
  /// kMaxDecodeDepth) throws ValueError, never allocates unboundedly.
  [[nodiscard]] static Value decode(ByteReader& r);
  [[nodiscard]] static Value decode(const Bytes& data);
  /// Encoded size in bytes; used for network traffic accounting.
  [[nodiscard]] std::size_t encoded_size() const;

  /// JSON-like rendering for logs and diagnostics.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Value&) const = default;

  friend std::ostream& operator<<(std::ostream& os, const Value& v);

 private:
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, Bytes, ValueList, ValueMap>;

  [[noreturn]] void type_mismatch(Type expected) const;
  [[nodiscard]] static Value decode(ByteReader& r, int depth);

  Storage data_{nullptr};
};

}  // namespace rcs
