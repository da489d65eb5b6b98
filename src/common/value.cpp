#include "rcs/common/value.hpp"

#include <ostream>
#include <sstream>

#include "rcs/common/error.hpp"
#include "rcs/common/payload.hpp"
#include "rcs/common/strf.hpp"

namespace rcs {

ValueMap::ValueMap(std::initializer_list<value_type> entries) {
  entries_.reserve(entries.size());
  for (const auto& [k, v] : entries) emplace(k, v);
}

Value& ValueMap::at(std::string_view key) {
  const auto it = find(key);
  if (it == end()) throw ValueError(strf("ValueMap::at: missing key '", key, "'"));
  return it->second;
}

const Value& ValueMap::at(std::string_view key) const {
  return const_cast<ValueMap*>(this)->at(key);
}

std::size_t ValueMap::erase(std::string_view key) {
  const auto it = find(key);
  if (it == end()) return 0;
  entries_.erase(it);
  return 1;
}

const char* Value::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kBytes: return "bytes";
    case Type::kList: return "list";
    case Type::kMap: return "map";
  }
  return "unknown";
}

Value Value::shared(Value v) {
  if (v.is_shared()) return v;
  Value cell;
  cell.data_ = std::make_shared<const ValueCell>(std::move(v));
  return cell;
}

void Payload::type_mismatch() {
  throw ValueError("Payload: the cell holds another message type");
}

const Value& Value::held() const {
  static const Value kNull;
  const Cell& cell = *std::get_if<Cell>(&data_);
  return cell ? cell->value : kNull;
}

bool Value::detach() {
  if (!is_shared()) return false;
  // Copy before assigning: the assignment may drop the last handle.
  Storage copy = held().data_;
  data_ = std::move(copy);
  return true;
}

bool Value::operator==(const Value& other) const {
  const Value& a = is_shared() ? held() : *this;
  const Value& b = other.is_shared() ? other.held() : other;
  return a.data_ == b.data_;
}

void Value::type_mismatch(Type expected) const {
  throw ValueError(strf("Value type mismatch: expected ", type_name(expected),
                        ", got ", type_name(), " (", to_string(), ")"));
}

// Each accessor reads the inline alternative first and unwraps a cell only
// when that misses, so an inline Value pays nothing for cells.

bool Value::as_bool() const {
  if (const auto* v = std::get_if<bool>(&data_)) return *v;
  if (is_shared()) return held().as_bool();
  type_mismatch(Type::kBool);
}

std::int64_t Value::as_int() const {
  if (const auto* v = std::get_if<std::int64_t>(&data_)) return *v;
  if (is_shared()) return held().as_int();
  type_mismatch(Type::kInt);
}

double Value::as_double() const {
  if (const auto* v = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*v);
  }
  if (const auto* v = std::get_if<double>(&data_)) return *v;
  if (is_shared()) return held().as_double();
  type_mismatch(Type::kDouble);
}

const std::string& Value::as_string() const {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  if (is_shared()) return held().as_string();
  type_mismatch(Type::kString);
}

const Bytes& Value::as_bytes() const {
  if (const auto* v = std::get_if<SharedBytes>(&data_)) return v->bytes();
  if (is_shared()) return held().as_bytes();
  type_mismatch(Type::kBytes);
}

const ValueList& Value::as_list() const {
  if (const auto* v = std::get_if<ValueList>(&data_)) return *v;
  if (is_shared()) return held().as_list();
  type_mismatch(Type::kList);
}

ValueList& Value::as_list() {
  if (auto* v = std::get_if<ValueList>(&data_)) return *v;
  if (detach()) return as_list();
  type_mismatch(Type::kList);
}

const ValueMap& Value::as_map() const {
  if (const auto* v = std::get_if<ValueMap>(&data_)) return *v;
  if (is_shared()) return held().as_map();
  type_mismatch(Type::kMap);
}

ValueMap& Value::as_map() {
  if (auto* v = std::get_if<ValueMap>(&data_)) return *v;
  if (detach()) return as_map();
  type_mismatch(Type::kMap);
}

bool Value::has(std::string_view key) const {
  return is_map() && as_map().contains(key);
}

const Value& Value::at(std::string_view key) const {
  const auto& m = as_map();
  const auto it = m.find(key);
  if (it == m.end()) {
    throw ValueError(strf("Value::at: missing key '", key, "' in ", to_string()));
  }
  return it->second;
}

Value Value::get_or(std::string_view key, Value fallback) const {
  const auto& m = as_map();
  const auto it = m.find(key);
  return it == m.end() ? std::move(fallback) : it->second;
}

Value& Value::set(std::string_view key, Value v) & {
  if (is_null()) data_ = ValueMap{};
  as_map()[key] = std::move(v);
  return *this;
}

Value& Value::push_back(Value v) {
  if (is_null()) data_ = ValueList{};
  as_list().push_back(std::move(v));
  return *this;
}

const Value& Value::at(std::size_t index) const {
  const auto& l = as_list();
  if (index >= l.size()) {
    throw ValueError(strf("Value::at: index ", index, " out of range (size ",
                          l.size(), ")"));
  }
  return l[index];
}

std::size_t Value::size() const {
  if (is_list()) return as_list().size();
  if (is_map()) return as_map().size();
  type_mismatch(Type::kList);
}

void Value::encode(ByteWriter& w) const {
  if (is_shared()) {
    held().encode(w);
    return;
  }
  w.write_u8(static_cast<std::uint8_t>(type()));
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      w.write_u8(std::get<bool>(data_) ? 1 : 0);
      break;
    case Type::kInt:
      w.write_i64(std::get<std::int64_t>(data_));
      break;
    case Type::kDouble:
      w.write_f64(std::get<double>(data_));
      break;
    case Type::kString:
      w.write_string(std::get<std::string>(data_));
      break;
    case Type::kBytes:
      w.write_bytes(std::get<SharedBytes>(data_).bytes());
      break;
    case Type::kList: {
      const auto& l = std::get<ValueList>(data_);
      w.write_varint(l.size());
      for (const auto& v : l) v.encode(w);
      break;
    }
    case Type::kMap: {
      const auto& m = std::get<ValueMap>(data_);
      w.write_varint(m.size());
      for (const auto& [k, v] : m) {
        w.write_string(k);
        v.encode(w);
      }
      break;
    }
  }
}

Bytes Value::encode() const {
  ByteWriter w;
  w.reserve(encoded_size());
  encode(w);
  return w.take();
}

std::uint64_t content_digest(const Value& value, std::string_view without) {
  thread_local ByteWriter out;
  out.clear();
  if (!without.empty() && value.is_map() && value.has(without)) {
    const ValueMap& map = value.as_map();
    out.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
    out.write_varint(map.size() - 1);
    for (const auto& [k, v] : map) {
      if (k == without) continue;
      out.write_string(k);
      v.encode(out);
    }
  } else {
    value.encode(out);
  }
  return xxh64(out.buffer());
}

Value Value::decode(ByteReader& r) { return decode(r, 0); }

Value Value::decode(ByteReader& r, int depth) {
  if (depth > kMaxDecodeDepth) {
    throw ValueError(strf("Value::decode: nesting deeper than ",
                          kMaxDecodeDepth));
  }
  const auto tag = r.read_u8();
  if (tag > static_cast<std::uint8_t>(Type::kMap)) {
    throw ValueError(strf("Value::decode: bad type tag ", int(tag)));
  }
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return {};
    case Type::kBool: {
      const auto byte = r.read_u8();
      // Strict: exactly 0 or 1, so every encoding is canonical and any
      // corruption of the payload byte is detectable.
      if (byte > 1) throw ValueError("Value::decode: non-canonical bool");
      return Value(byte == 1);
    }
    case Type::kInt:
      return Value(r.read_i64());
    case Type::kDouble:
      return Value(r.read_f64());
    case Type::kString:
      return Value(r.read_string());
    case Type::kBytes:
      return Value(r.read_bytes());
    case Type::kList: {
      const auto n = r.read_varint();
      // Every element takes at least its tag byte, so a count beyond the
      // bytes left is a lie; refuse it before reserving anything.
      if (n > r.remaining()) {
        throw ValueError(strf("Value::decode: list of ", n, " elements in ",
                              r.remaining(), " bytes"));
      }
      ValueList l;
      l.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) l.push_back(decode(r, depth + 1));
      return Value(std::move(l));
    }
    case Type::kMap: {
      const auto n = r.read_varint();
      // Every entry takes at least a key-length byte and a tag byte.
      if (n > r.remaining() / 2) {
        throw ValueError(strf("Value::decode: map of ", n, " entries in ",
                              r.remaining(), " bytes"));
      }
      ValueMap m;
      m.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        auto key = r.read_string();
        // encode() writes keys strictly ascending; demanding the same keeps
        // every encoding canonical and every insert an O(1) append.
        if (!m.empty() && key <= std::prev(m.end())->first) {
          throw ValueError(strf("Value::decode: map key '", key,
                                "' out of order"));
        }
        m.emplace(std::move(key), decode(r, depth + 1));
      }
      return Value(std::move(m));
    }
  }
  throw ValueError("Value::decode: unreachable");
}

Value Value::decode(const Bytes& data) {
  ByteReader r(data);
  auto v = decode(r);
  if (!r.at_end()) {
    throw ValueError("Value::decode: trailing bytes after value");
  }
  return v;
}

namespace {
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

// Mirrors encode() exactly (tag byte + payload per type) without touching the
// heap: this runs once per Network::send to price the message, so it must not
// cost a full serialization.
std::size_t Value::encoded_size() const {
  if (const auto* cell = std::get_if<Cell>(&data_)) {
    return *cell ? (*cell)->encoded_size : held().encoded_size();
  }
  switch (type()) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 2;
    case Type::kInt:
    case Type::kDouble:
      return 1 + 8;
    case Type::kString: {
      const auto& s = std::get<std::string>(data_);
      return 1 + varint_size(s.size()) + s.size();
    }
    case Type::kBytes: {
      const auto& b = std::get<SharedBytes>(data_).bytes();
      return 1 + varint_size(b.size()) + b.size();
    }
    case Type::kList: {
      const auto& l = std::get<ValueList>(data_);
      std::size_t n = 1 + varint_size(l.size());
      for (const auto& v : l) n += v.encoded_size();
      return n;
    }
    case Type::kMap: {
      const auto& m = std::get<ValueMap>(data_);
      std::size_t n = 1 + varint_size(m.size());
      for (const auto& [k, v] : m) {
        n += varint_size(k.size()) + k.size() + v.encoded_size();
      }
      return n;
    }
  }
  throw ValueError("Value::encoded_size: unreachable");
}

namespace {
void render(std::ostream& os, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      os << "null";
      break;
    case Value::Type::kBool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case Value::Type::kInt:
      os << v.as_int();
      break;
    case Value::Type::kDouble:
      os << v.as_double();
      break;
    case Value::Type::kString:
      os << '"' << v.as_string() << '"';
      break;
    case Value::Type::kBytes:
      os << "bytes[" << v.as_bytes().size() << ']';
      break;
    case Value::Type::kList: {
      os << '[';
      bool first = true;
      for (const auto& e : v.as_list()) {
        if (!first) os << ',';
        first = false;
        render(os, e);
      }
      os << ']';
      break;
    }
    case Value::Type::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, e] : v.as_map()) {
        if (!first) os << ',';
        first = false;
        os << '"' << k << "\":";
        render(os, e);
      }
      os << '}';
      break;
    }
  }
}
}  // namespace

std::string Value::to_string() const {
  std::ostringstream os;
  render(os, *this);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  render(os, v);
  return os;
}

}  // namespace rcs
