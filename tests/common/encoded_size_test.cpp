// Value::encoded_size() contract: byte-identical to encode().size() for every
// Value shape, and allocation-free — it prices every simulated message
// (Network::send), so it must not serialize.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

std::vector<Value> all_shapes() {
  std::vector<Value> shapes;
  shapes.emplace_back();                       // null
  shapes.emplace_back(true);                   // bool
  shapes.emplace_back(false);
  shapes.emplace_back(std::int64_t{0});
  shapes.emplace_back(std::int64_t{-1});
  shapes.emplace_back(std::int64_t{1} << 62);
  shapes.emplace_back(3.14159);
  shapes.emplace_back(std::string{});          // empty string
  shapes.emplace_back(std::string(1, 'x'));
  shapes.emplace_back(std::string(127, 'a'));  // 1-byte varint length, max
  shapes.emplace_back(std::string(128, 'b'));  // 2-byte varint length, min
  shapes.emplace_back(std::string(16384, 'c'));  // 3-byte varint length
  shapes.emplace_back(Bytes{});
  shapes.emplace_back(Bytes(200, 0x5A));
  shapes.emplace_back(Value::list());          // empty list
  Value list = Value::list();
  for (int i = 0; i < 130; ++i) list.push_back(Value(std::int64_t{i}));
  shapes.push_back(list);                      // count needs a 2-byte varint
  shapes.emplace_back(Value::map());           // empty map
  Value nested = Value::map();
  nested.set("s", "str").set("b", Bytes{1, 2, 3}).set("l", list);
  nested.set("m", Value::map().set("inner", Value(7.5)).set("deep", list));
  shapes.push_back(nested);
  return shapes;
}

TEST(EncodedSize, MatchesEncodeAcrossAllShapes) {
  for (const Value& v : all_shapes()) {
    EXPECT_EQ(v.encoded_size(), v.encode().size()) << v.to_string();
  }
}

TEST(EncodedSize, PerformsZeroHeapAllocations) {
  const auto shapes = all_shapes();
  std::size_t total = 0;
  const std::size_t before = test::allocations();
  for (const Value& v : shapes) total += v.encoded_size();
  EXPECT_EQ(test::allocations(), before)
      << "encoded_size allocated on the heap";
  EXPECT_GT(total, 16384u);  // the big string alone guarantees this
}

TEST(EncodedSize, EncodeReservesExactly) {
  // With the reserve() pre-sizing pass, encode() should produce a buffer
  // whose size equals the predicted size (capacity is at least that).
  for (const Value& v : all_shapes()) {
    const Bytes encoded = v.encode();
    EXPECT_EQ(encoded.size(), v.encoded_size());
    EXPECT_GE(encoded.capacity(), encoded.size());
  }
}

}  // namespace
}  // namespace rcs
