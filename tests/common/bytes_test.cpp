#include "rcs/common/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string_view>

#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"

namespace rcs {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f64(3.14159);

  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, VarintSmallValuesAreOneByte) {
  ByteWriter w;
  w.write_varint(0);
  w.write_varint(127);
  EXPECT_EQ(w.size(), 2u);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_varint(), 0u);
  EXPECT_EQ(r.read_varint(), 127u);
}

TEST(Bytes, VarintBoundaries) {
  ByteWriter w;
  const std::uint64_t cases[] = {128, 16383, 16384,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (auto v : cases) w.write_varint(v);
  ByteReader r(w.buffer());
  for (auto v : cases) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, StringRoundTripIncludingEmbeddedNul) {
  ByteWriter w;
  const std::string s("a\0b", 3);
  w.write_string(s);
  w.write_string("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_string(), s);
  EXPECT_EQ(r.read_string(), "");
}

TEST(Bytes, BlobRoundTrip) {
  ByteWriter w;
  const Bytes blob{0, 1, 2, 255};
  w.write_bytes(blob);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_bytes(), blob);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u32(7);
  Bytes truncated = w.buffer();
  truncated.pop_back();
  ByteReader r(truncated);
  EXPECT_THROW((void)r.read_u32(), ValueError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.write_string("hello world");
  Bytes truncated = w.buffer();
  truncated.resize(4);
  ByteReader r(truncated);
  EXPECT_THROW((void)r.read_string(), ValueError);
}

TEST(Bytes, MalformedVarintOverflowThrows) {
  // 11 continuation bytes exceed the 64-bit range.
  Bytes bad(11, 0xFF);
  ByteReader r(bad);
  EXPECT_THROW((void)r.read_varint(), ValueError);
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.write_u64(1);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Bytes, Xxh64IsStableAndSensitive) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 4};
  EXPECT_EQ(xxh64(a), xxh64(a));
  EXPECT_NE(xxh64(a), xxh64(b));
  EXPECT_NE(xxh64({}), xxh64(a));
}

std::uint64_t xxh64_of(std::string_view text) {
  return xxh64({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

TEST(Bytes, Xxh64MatchesTheReferenceVectors) {
  // Seed 0, from the reference implementation. The 39-byte input runs the
  // 32-byte stripe loop and then every tail step (8-, 4- and 1-byte).
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

Bytes seeded_blob(std::size_t size) {
  Rng rng(size);
  Bytes blob(size);
  for (auto& byte : blob) byte = static_cast<std::uint8_t>(rng.next_u64());
  return blob;
}

TEST(Bytes, Xxh64SeesEverySingleBitFlip) {
  // Lengths on each side of the 32-byte stripe, a page, and a typical
  // artifact size.
  for (const std::size_t size : {1u, 31u, 32u, 33u, 4096u, 25'000u}) {
    Bytes blob = seeded_blob(size);
    const std::uint64_t whole = xxh64(blob);
    for (std::size_t bit = 0; bit < size * 8; ++bit) {
      blob[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_NE(xxh64(blob), whole) << "size " << size << ", bit " << bit;
      blob[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    ASSERT_EQ(xxh64(blob), whole);
  }
}

TEST(Bytes, Xxh64OfAPrefixDiffersFromTheWhole) {
  for (const std::size_t size : {1u, 31u, 32u, 33u, 4096u, 25'000u}) {
    const Bytes blob = seeded_blob(size);
    const std::span<const std::uint8_t> bytes(blob);
    const std::uint64_t whole = xxh64(bytes);
    for (std::size_t length = 0; length < size; ++length) {
      ASSERT_NE(xxh64(bytes.first(length)), whole)
          << "size " << size << ", prefix " << length;
    }
  }
}

}  // namespace
}  // namespace rcs
