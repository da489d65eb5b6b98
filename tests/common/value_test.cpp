#include "rcs/common/value.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rcs/common/error.hpp"

namespace rcs {
namespace {

TEST(Value, DefaultIsNull) {
  const Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Value::Type::kNull);
  EXPECT_STREQ(v.type_name(), "null");
}

TEST(Value, BoolRoundTrip) {
  const Value v(true);
  EXPECT_TRUE(v.is_bool());
  EXPECT_TRUE(v.as_bool());
  EXPECT_FALSE(Value(false).as_bool());
}

TEST(Value, IntAccessors) {
  const Value v(std::int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_DOUBLE_EQ(v.as_double(), 42.0);  // int widens to double
}

TEST(Value, IntFromPlainIntLiteral) {
  const Value v(7);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 7);
}

TEST(Value, DoubleDoesNotNarrowToInt) {
  const Value v(3.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_THROW((void)v.as_int(), ValueError);
}

TEST(Value, StringAccessors) {
  const Value v("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "hello");
}

TEST(Value, TypeMismatchThrowsWithDiagnostics) {
  const Value v("text");
  try {
    (void)v.as_int();
    FAIL() << "expected ValueError";
  } catch (const ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("expected int"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
  }
}

TEST(Value, MapSetAndAt) {
  Value v;
  v.set("a", 1).set("b", "two");
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").as_string(), "two");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("missing"));
}

TEST(Value, MapAtMissingKeyThrows) {
  Value v = Value::map();
  EXPECT_THROW((void)v.at("nope"), ValueError);
}

TEST(Value, GetOrReturnsFallback) {
  Value v = Value::map();
  v.set("present", 5);
  EXPECT_EQ(v.get_or("present", 0).as_int(), 5);
  EXPECT_EQ(v.get_or("absent", 9).as_int(), 9);
}

TEST(Value, ListPushAndIndex) {
  Value v;
  v.push_back(1).push_back("x").push_back(true);
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(1).as_string(), "x");
  EXPECT_TRUE(v.at(2).as_bool());
  EXPECT_THROW((void)v.at(3), ValueError);
}

TEST(Value, NestedStructure) {
  Value inner = Value::map();
  inner.set("x", 1.5);
  Value v = Value::map();
  v.set("inner", inner).set("list", Value(ValueList{Value(1), Value(2)}));
  EXPECT_DOUBLE_EQ(v.at("inner").at("x").as_double(), 1.5);
  EXPECT_EQ(v.at("list").at(1).as_int(), 2);
}

TEST(Value, TemporaryMapMovesIntoAMember) {
  // GCC 12 with the address/undefined sanitizers once rejected this move
  // with a spurious -Wmaybe-uninitialized; the sanitized build compiles it.
  struct Reply {
    Value result;
  };
  std::vector<Reply> replies(4);
  for (int i = 0; i < 4; ++i) {
    Reply& r = replies[static_cast<std::size_t>(i)];
    r.result = Value::map().set("value", i + 1);
  }
  EXPECT_EQ(replies.back().result.at("value").as_int(), 4);
}

TEST(Value, EqualityIsDeep) {
  Value a = Value::map();
  a.set("k", Value(ValueList{Value(1), Value("s")}));
  Value b = Value::map();
  b.set("k", Value(ValueList{Value(1), Value("s")}));
  EXPECT_EQ(a, b);
  b.set("k2", 0);
  EXPECT_NE(a, b);
}

TEST(Value, EncodeDecodeRoundTripAllTypes) {
  Value v = Value::map();
  v.set("null", Value{});
  v.set("bool", true);
  v.set("int", std::int64_t{-123456789});
  v.set("double", 2.718281828);
  v.set("string", "héllo wörld");
  v.set("bytes", Bytes{0x00, 0xFF, 0x7E});
  v.set("list", Value(ValueList{Value(1), Value(ValueList{Value("nested")})}));
  Value inner = Value::map();
  inner.set("deep", Value(ValueMap{{"deeper", Value(7)}}));
  v.set("map", inner);

  const Bytes encoded = v.encode();
  const Value decoded = Value::decode(encoded);
  EXPECT_EQ(v, decoded);
}

TEST(Value, DecodeRejectsTrailingGarbage) {
  Bytes encoded = Value(1).encode();
  encoded.push_back(0x00);
  EXPECT_THROW((void)Value::decode(encoded), ValueError);
}

TEST(Value, DecodeRejectsBadTag) {
  const Bytes bad{0xEE};
  EXPECT_THROW((void)Value::decode(bad), ValueError);
}

TEST(Value, DecodeRejectsTruncation) {
  Bytes encoded = Value("a longer string payload").encode();
  encoded.resize(encoded.size() / 2);
  EXPECT_THROW((void)Value::decode(encoded), ValueError);
}

TEST(Value, DecodeRejectsListCountBeyondInput) {
  // A list header claiming 2^62 elements, in 10 bytes: tag + 9-byte varint.
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kList));
  w.write_varint(std::uint64_t{1} << 62);
  const Bytes hostile = w.take();
  ASSERT_EQ(hostile.size(), 10u);
  EXPECT_THROW((void)Value::decode(hostile), ValueError);
}

TEST(Value, DecodeRejectsMapCountBeyondInput) {
  // A map header claiming 2^62 entries, in 10 bytes: tag + 9-byte varint.
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
  w.write_varint(std::uint64_t{1} << 62);
  const Bytes hostile = w.take();
  ASSERT_EQ(hostile.size(), 10u);
  EXPECT_THROW((void)Value::decode(hostile), ValueError);
}

// A map encoding with the given keys in the given order, each mapped to null.
Bytes raw_map(const std::vector<std::string>& keys) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
  w.write_varint(keys.size());
  for (const auto& k : keys) {
    w.write_string(k);
    w.write_u8(static_cast<std::uint8_t>(Value::Type::kNull));
  }
  return w.take();
}

TEST(Value, DecodeRequiresStrictlyAscendingMapKeys) {
  EXPECT_EQ(Value::decode(raw_map({"a", "ab", "b"})),
            Value::map().set("b", {}).set("a", {}).set("ab", {}));
  EXPECT_THROW((void)Value::decode(raw_map({"b", "a"})), ValueError);
  EXPECT_THROW((void)Value::decode(raw_map({"a", "b", "b"})), ValueError);
  EXPECT_THROW((void)Value::decode(raw_map({"", ""})), ValueError);
}

TEST(Value, DecodeRejectsDeepNesting) {
  // 100k one-element lists, one inside the other, around a null.
  Bytes hostile;
  for (int i = 0; i < 100'000; ++i) {
    hostile.push_back(static_cast<std::uint8_t>(Value::Type::kList));
    hostile.push_back(1);
  }
  hostile.push_back(static_cast<std::uint8_t>(Value::Type::kNull));
  EXPECT_THROW((void)Value::decode(hostile), ValueError);
}

TEST(Value, DecodeAcceptsNestingUpToTheLimit) {
  Value v;
  for (int i = 0; i < Value::kMaxDecodeDepth; ++i) {
    v = Value::map().set("m", std::move(v));
  }
  EXPECT_EQ(Value::decode(v.encode()), v);
  EXPECT_THROW((void)Value::decode(Value(ValueList{v}).encode()), ValueError);
}

TEST(Value, EncodedSizeMatchesEncodeLength) {
  Value v = Value::map();
  v.set("k", Value(ValueList{Value(1), Value(2), Value(3)}));
  EXPECT_EQ(v.encoded_size(), v.encode().size());
}

TEST(Value, ToStringRendersJsonLike) {
  Value v = Value::map();
  v.set("n", 3).set("s", "x").set("b", true);
  EXPECT_EQ(v.to_string(), R"({"b":true,"n":3,"s":"x"})");
}

TEST(Value, ToStringRendersListAndNull) {
  Value v;
  v.push_back(Value{}).push_back(1.5);
  EXPECT_EQ(v.to_string(), "[null,1.5]");
}

TEST(Value, SizeOnScalarThrows) {
  EXPECT_THROW((void)Value(1).size(), ValueError);
}

TEST(Value, BytesRoundTrip) {
  const Bytes data{1, 2, 3, 4, 5};
  const Value v(data);
  EXPECT_TRUE(v.is_bytes());
  EXPECT_EQ(v.as_bytes(), data);
  EXPECT_EQ(Value::decode(v.encode()).as_bytes(), data);
}

TEST(Value, SeparatelyBuiltEqualBlobsCompareEqual) {
  // Two buffers, same contents: equality is by content, not by buffer.
  const Value a(Bytes(4096, 0x5A));
  const Value b(Bytes(4096, 0x5A));
  ASSERT_NE(&a.as_bytes(), &b.as_bytes());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Value(Bytes(4096, 0x5B)));
}

}  // namespace
}  // namespace rcs
