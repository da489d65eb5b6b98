// ValueMap is a key-sorted vector standing in for std::map<std::string,
// Value>. Property test: random operation sequences on both must agree on
// every result, on iteration order and on the bytes Value::encode writes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

using Reference = std::map<std::string, Value>;

// The empty key, prefixes of each other, and bytes >= 0x80 (negative where
// char is signed, yet ordered after ASCII by std::string comparison).
const std::vector<std::string>& key_pool() {
  static const std::vector<std::string> keys = {
      "",      "a",      "ab",     "abc",    "b",       "ba",
      "\x7f",  "\x80",   "\xff",   "a\x80",  "a\xff",   "\xff\xff",
      "key",   "result", "status", "trace",  std::string(1, '\0'),
      std::string("a\0b", 3), "a longer key past small-string size"};
  return keys;
}

std::string random_key(Rng& rng) {
  const auto& pool = key_pool();
  if (rng.bernoulli(0.2)) {
    std::string k;
    const auto n = rng.uniform_int(0, 3);
    for (int i = 0; i < n; ++i) k += static_cast<char>(rng.uniform_int(0, 255));
    return k;
  }
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

Value random_scalar(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return Value(rng.uniform_int(-1000, 1000));
    case 1: return Value(random_key(rng));
    default: return {};
  }
}

Bytes reference_encode(const Reference& ref) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
  w.write_varint(ref.size());
  for (const auto& [k, v] : ref) {
    w.write_string(k);
    v.encode(w);
  }
  return w.take();
}

void expect_same(const ValueMap& map, const Reference& ref) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.empty());
  auto it = map.begin();
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(it->first, k);
    ASSERT_EQ(it->second, v);
    ++it;
  }
  ASSERT_EQ(it, map.end());
  const Value whole(map);
  ASSERT_EQ(whole.encode(), reference_encode(ref));
  ASSERT_EQ(whole.encoded_size(), reference_encode(ref).size());
}

class ValueMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueMapProperty, MatchesStdMapReference) {
  Rng rng(0x5EED + GetParam());
  ValueMap map;
  Reference ref;
  for (int step = 0; step < 2000; ++step) {
    const std::string key = random_key(rng);
    switch (rng.uniform_int(0, 5)) {
      case 0: {
        const Value v = random_scalar(rng);
        map[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {
        const Value v = random_scalar(rng);
        const auto [it, inserted] = map.emplace(key, v);
        const auto [rit, rinserted] = ref.emplace(key, v);
        ASSERT_EQ(inserted, rinserted);
        ASSERT_EQ(it->first, rit->first);
        ASSERT_EQ(it->second, rit->second);
        break;
      }
      case 2:
        ASSERT_EQ(map.erase(key), ref.erase(key));
        break;
      case 3: {
        const auto it = map.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == map.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(it->second, rit->second);
        }
        ASSERT_EQ(map.contains(key), ref.contains(key));
        break;
      }
      case 4:
        if (ref.contains(key)) {
          ASSERT_EQ(map.at(key), ref.at(key));
        } else {
          ASSERT_THROW((void)map.at(key), ValueError);
        }
        break;
      default:
        // Read through operator[]: a missing key goes in as null.
        ASSERT_EQ(map[key], ref[key]);
        break;
    }
    if (rng.bernoulli(0.01)) {
      map.clear();
      ref.clear();
    }
    expect_same(map, ref);
  }
  const ValueMap copy = map;
  EXPECT_EQ(copy, map);
  EXPECT_EQ(Value::decode(Value(map).encode()), Value(map));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueMapProperty, ::testing::Range(0, 8));

TEST(ValueMap, InitializerListKeepsTheFirstOfEqualKeys) {
  const ValueMap map{{"x", Value(1)}, {"a", Value(2)}, {"x", Value(3)}};
  const Reference ref{{"x", Value(1)}, {"a", Value(2)}, {"x", Value(3)}};
  EXPECT_EQ(map.at("x").as_int(), 1);
  expect_same(map, ref);
}

TEST(ValueMap, EqualityComparesKeysAndValues) {
  const ValueMap a{{"k", Value(1)}};
  EXPECT_EQ(a, (ValueMap{{"k", Value(1)}}));
  EXPECT_FALSE(a == (ValueMap{{"k", Value(2)}}));
  EXPECT_FALSE(a == (ValueMap{{"j", Value(1)}}));
  EXPECT_FALSE(a == ValueMap{});
}

TEST(ValueMap, OperatorBracketCopiesAKeyViewingTheMap) {
  // The new key views a short string stored inside an entry of the same
  // map, and inserting it before that entry moves the entry.
  ValueMap map;
  map["b"] = Value("a");
  const std::string& text = map.at("b").as_string();
  map[text] = Value(1);
  EXPECT_EQ(map.at("a").as_int(), 1);
  EXPECT_EQ(map.at("b").as_string(), "a");
}

}  // namespace
}  // namespace rcs
