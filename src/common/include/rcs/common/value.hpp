// Dynamic value model.
//
// Value is the data that crosses the system's dynamic edges: a client's
// request and reply, what the application computes and keeps (its results,
// state and deltas), component properties and script bindings, and network
// message payloads. Components call each other through typed C++ faces, not
// through Values (see rcs/component/component.hpp).
//
// A Value is null, a bool, an int64, a double, a string, a byte blob, a list,
// or a string-keyed map. A byte blob is held by SharedBytes handle: copies of
// the Value share it, and nothing mutates it in place. Values serialize to
// Bytes with a stable binary encoding (used for checkpoints and for sizing
// simulated network traffic).
//
// Any Value can also be held in a shared immutable cell (Value::shared), the
// Value analogue of SharedBytes: the cell keeps the Value and its encoded
// size, and copies of a cell bump a reference count and copy no map. A cell
// behaves exactly like the Value it holds for type(), every const accessor,
// iteration, ==, encode, encoded_size and to_string; a mutable access
// (as_map(), as_list(), set, push_back) first copies the held Value into
// place, so other holders never see the change. Network payloads and the
// reply log's records are cells; decode never makes one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "rcs/common/bytes.hpp"

namespace rcs {

class Value;
class Payload;
struct ValueCell;

using ValueList = std::vector<Value>;

/// String-keyed map of Values: one key-sorted vector, so a map costs one heap
/// allocation however many entries it holds, and a copy costs one more.
/// Iteration is in byte-lexicographic key order, exactly as std::map's, which
/// keeps encodings and digests canonical. Inserting keys in ascending order
/// (literal set chains, copies, decode) appends in O(1).
///
/// Unlike std::map, any insert or erase invalidates references, pointers and
/// iterators into the map (the entries move). Do not hold one across a set,
/// operator[] of a new key, emplace or erase on the same map. Keys reached
/// through iterators must not be modified.
class ValueMap {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  ValueMap() = default;
  /// As with std::map, the first of two equal keys wins.
  ValueMap(std::initializer_list<value_type> entries);

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  [[nodiscard]] iterator find(std::string_view key);
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Throws ValueError if the key is missing.
  [[nodiscard]] Value& at(std::string_view key);
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// The entry for key, inserted as null if missing.
  Value& operator[](std::string_view key);
  /// Inserts unless the key is present; either way returns its entry.
  std::pair<iterator, bool> emplace(std::string key, Value value);
  /// Number of entries removed (0 or 1).
  std::size_t erase(std::string_view key);

  friend bool operator==(const ValueMap& a, const ValueMap& b);

 private:
  /// First entry whose key is not less than key.
  [[nodiscard]] iterator lower_bound(std::string_view key);
  iterator insert_at(iterator pos, std::string key, Value value);

  std::vector<value_type> entries_;
};

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
  // GCC 12 reports a spurious -Wmaybe-uninitialized for the variant's
  // inactive members when a temporary Value is moved or copied into place
  // (`r.result = Value::map().set("value", i + 1);`) and the special member
  // is inlined into the caller. Declaring them here puts that inlining site
  // under the pragma, once for every caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(const Value&) = default;
  Value& operator=(Value&&) noexcept = default;
#pragma GCC diagnostic pop
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
  Value(Bytes v) : data_(SharedBytes(std::move(v))) {}  // NOLINT
  Value(SharedBytes v) : data_(std::move(v)) {}          // NOLINT
  Value(ValueList v) : data_(std::move(v)) {}        // NOLINT
  Value(ValueMap v) : data_(std::move(v)) {}         // NOLINT

  [[nodiscard]] static Value list() { return Value(ValueList{}); }
  [[nodiscard]] static Value map() { return Value(ValueMap{}); }

  /// `v` in a shared immutable cell with its encoded size, computed once
  /// here. A cell passes through unchanged.
  [[nodiscard]] static Value shared(Value v);
  /// True for a cell made by shared().
  [[nodiscard]] bool is_shared() const { return data_.index() == kCellIndex; }

  [[nodiscard]] Type type() const {
    const auto index = data_.index();
    return index < kCellIndex ? static_cast<Type>(index) : held().type();
  }
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
  // A member reference stays valid only until the next insert into or erase
  // from the same map (see ValueMap).
  [[nodiscard]] bool has(std::string_view key) const;
  /// Member lookup; throws ValueError if not a map or key missing.
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// Member lookup with default for missing keys (still throws if not map).
  [[nodiscard]] Value get_or(std::string_view key, Value fallback) const;
  /// Insert/overwrite a member. A null Value silently becomes a map first.
  Value& set(std::string_view key, Value v) &;
  /// On a temporary, so that `return Value::map().set(...)` moves the map
  /// out instead of copying it.
  Value&& set(std::string_view key, Value v) && {
    return std::move(set(key, std::move(v)));
  }

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

  /// Compares held Values: a cell equals the Value it holds.
  bool operator==(const Value& other) const;

  friend std::ostream& operator<<(std::ostream& os, const Value& v);

 private:
  friend class Payload;  // holds the cell handle itself

  using Cell = std::shared_ptr<const ValueCell>;
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, SharedBytes, ValueList, ValueMap,
                               Cell>;
  /// The Cell alternative follows the eight of Type, in Type's order.
  static constexpr std::size_t kCellIndex = 8;

  /// The Value a cell holds (null for a moved-from cell); call only on a
  /// cell.
  [[nodiscard]] const Value& held() const;
  /// Replaces a cell with a copy of the Value it holds, so that a mutable
  /// access never writes through to the other holders. False on no cell.
  bool detach();
  [[noreturn]] void type_mismatch(Type expected) const;
  [[nodiscard]] static Value decode(ByteReader& r, int depth);

  Storage data_{nullptr};
};

/// XXH64 of `value`'s encoding, or, for a map with a `without` member, of
/// the map's encoding as if that member were erased: the content digest
/// that seals application results and that replicas compare. It encodes
/// into a buffer kept per thread, so a call allocates nothing once that
/// buffer has grown.
[[nodiscard]] std::uint64_t content_digest(const Value& value,
                                           std::string_view without = {});

/// Tag of the payload cells that hold a T: the address of a per-type object.
template <class T>
inline char payload_tag = 0;

/// What a Payload holds: a refcounted immutable cell whose tag names the
/// type it holds, with the exact size of its wire encoding, computed once.
/// A ValueCell holds a Value; a TypedCell (payload.hpp) any other message.
struct PayloadCell {
  const void* tag;
  std::size_t encoded_size;
};

/// What Value::shared makes: an immutable Value (never itself a cell) and its
/// encoded size.
struct ValueCell : PayloadCell {
  explicit ValueCell(Value v)
      : PayloadCell{&payload_tag<Value>, v.encoded_size()},
        value(std::move(v)) {}
  Value value;
};

// ValueMap members that touch entries need Value complete.

inline ValueMap::iterator ValueMap::lower_bound(std::string_view key) {
  // Appending in key order is the common case: skip the search.
  if (entries_.empty() || std::string_view(entries_.back().first) < key) {
    return entries_.end();
  }
  return std::lower_bound(entries_.begin(), entries_.end(), key,
                          [](const value_type& e, std::string_view k) {
                            return std::string_view(e.first) < k;
                          });
}

inline ValueMap::iterator ValueMap::find(std::string_view key) {
  const auto it = lower_bound(key);
  return it != entries_.end() && it->first == key ? it : entries_.end();
}

inline ValueMap::const_iterator ValueMap::find(std::string_view key) const {
  return const_cast<ValueMap*>(this)->find(key);
}

inline bool ValueMap::contains(std::string_view key) const {
  return find(key) != end();
}

inline ValueMap::iterator ValueMap::insert_at(iterator pos, std::string key,
                                              Value value) {
  // A call's args or a reply fits the first block.
  if (entries_.capacity() == 0) {
    entries_.reserve(4);
    pos = entries_.begin();
  }
  return entries_.emplace(pos, std::move(key), std::move(value));
}

inline Value& ValueMap::operator[](std::string_view key) {
  const auto it = lower_bound(key);
  if (it != entries_.end() && it->first == key) return it->second;
  // The key is copied before the entries move: it may view one of them.
  return insert_at(it, std::string(key), Value{})->second;
}

inline std::pair<ValueMap::iterator, bool> ValueMap::emplace(std::string key,
                                                            Value value) {
  const auto it = lower_bound(key);
  if (it != entries_.end() && it->first == key) return {it, false};
  return {insert_at(it, std::move(key), std::move(value)), true};
}

inline bool operator==(const ValueMap& a, const ValueMap& b) {
  return a.entries_ == b.entries_;
}

}  // namespace rcs
