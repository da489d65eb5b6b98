// Property tests: randomly generated Values must round-trip the codec
// bit-identically, and corrupting any single byte of an encoding must never
// produce a Value that silently equals the original (it either decodes to a
// different Value or throws) — the property the fault-injection experiments
// and package checksums rely on. The same trees held in shared cells at
// random depths must be indistinguishable from the inline trees.
#include <gtest/gtest.h>

#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

Value random_value(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth > 0 ? 7 : 5));
  switch (kind) {
    case 0:
      return {};
    case 1:
      return Value(rng.bernoulli(0.5));
    case 2:
      return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3:
      return Value(rng.uniform(-1e9, 1e9));
    case 4: {
      std::string s;
      const auto n = rng.uniform_int(0, 24);
      for (int i = 0; i < n; ++i) {
        s += static_cast<char>(rng.uniform_int(0, 255));
      }
      return Value(std::move(s));
    }
    case 5: {
      Bytes b;
      const auto n = rng.uniform_int(0, 32);
      for (int i = 0; i < n; ++i) {
        b.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      return Value(std::move(b));
    }
    case 6: {
      ValueList list;
      const auto n = rng.uniform_int(0, 5);
      for (int i = 0; i < n; ++i) list.push_back(random_value(rng, depth - 1));
      return Value(std::move(list));
    }
    default: {
      ValueMap map;
      const auto n = rng.uniform_int(0, 5);
      for (int i = 0; i < n; ++i) {
        map["k" + std::to_string(rng.uniform_int(0, 99))] =
            random_value(rng, depth - 1);
      }
      return Value(std::move(map));
    }
  }
}

/// `v` rebuilt with every subtree (and `v` itself) held in a shared cell
/// with probability 1/2, so cells sit at random depths, nested in cells.
Value share_randomly(Rng& rng, const Value& v) {
  Value out;
  if (v.is_list()) {
    ValueList list;
    for (const auto& e : v.as_list()) list.push_back(share_randomly(rng, e));
    out = Value(std::move(list));
  } else if (v.is_map()) {
    ValueMap map;
    for (const auto& [k, e] : v.as_map()) {
      map.emplace(k, share_randomly(rng, e));
    }
    out = Value(std::move(map));
  } else {
    out = v;
  }
  return rng.bernoulli(0.5) ? Value::shared(std::move(out)) : out;
}

bool holds_a_cell(const Value& v) {
  if (v.is_shared()) return true;
  if (v.is_list()) {
    for (const auto& e : v.as_list()) {
      if (holds_a_cell(e)) return true;
    }
  }
  if (v.is_map()) {
    for (const auto& [k, e] : v.as_map()) {
      if (holds_a_cell(e)) return true;
    }
  }
  return false;
}

class ValueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ValueFuzz, CellsAtRandomDepthsMatchTheInlineTree) {
  Rng rng(0xCE11 + GetParam());
  for (int i = 0; i < 200; ++i) {
    const Value tree = random_value(rng, 3);
    const Value shared = share_randomly(rng, tree);
    ASSERT_EQ(shared.type(), tree.type());
    ASSERT_EQ(shared.encode(), tree.encode()) << tree.to_string();
    ASSERT_EQ(shared.encoded_size(), tree.encoded_size()) << tree.to_string();
    ASSERT_EQ(shared, tree) << tree.to_string();
    ASSERT_EQ(tree, shared) << tree.to_string();
    ASSERT_EQ(shared.to_string(), tree.to_string());
    // Decoding the cells' bytes gives the inline tree back, cell-free.
    const Value decoded = Value::decode(shared.encode());
    ASSERT_FALSE(holds_a_cell(decoded)) << tree.to_string();
    ASSERT_EQ(decoded, tree);
  }
}

TEST_P(ValueFuzz, MutableAccessDetachesFromEveryOtherHolder) {
  Rng rng(0xDE7A + GetParam());
  for (int i = 0; i < 200; ++i) {
    const Value tree = random_value(rng, 3);
    if (!tree.is_list() && !tree.is_map()) continue;
    const Value cell = Value::shared(share_randomly(rng, tree));
    const Value other = cell;  // NOLINT(performance-unnecessary-copy-initialization)
    Value mine = cell;
    if (mine.is_map()) {
      mine.set("znew", 1);
    } else {
      mine.push_back(1);
    }
    ASSERT_FALSE(mine.is_shared());
    ASSERT_NE(mine, tree);
    ASSERT_TRUE(cell.is_shared());
    ASSERT_EQ(cell, tree) << tree.to_string();
    ASSERT_EQ(other, tree) << tree.to_string();
  }
}

TEST_P(ValueFuzz, EncodeDecodeRoundTrips) {
  Rng rng(0xF00D + GetParam());
  for (int i = 0; i < 200; ++i) {
    const Value original = random_value(rng, 3);
    const Value decoded = Value::decode(original.encode());
    ASSERT_EQ(decoded, original) << original.to_string();
  }
}

TEST_P(ValueFuzz, EncodingIsCanonical) {
  // Same Value -> same bytes (the digest comparisons in LFR notifications
  // and TR voting depend on this).
  Rng rng(0xBEEF + GetParam());
  for (int i = 0; i < 100; ++i) {
    const Value v = random_value(rng, 3);
    ASSERT_EQ(v.encode(), Value::decode(v.encode()).encode());
  }
}

TEST_P(ValueFuzz, EncodedSizeMatchesEncodeExactly) {
  // encoded_size() computes sizes without serializing; it must agree with the
  // real encoding byte-for-byte on arbitrary shapes (message size accounting
  // in the simulated network depends on it).
  Rng rng(0xD1CE + GetParam());
  for (int i = 0; i < 200; ++i) {
    const Value v = random_value(rng, 3);
    ASSERT_EQ(v.encoded_size(), v.encode().size()) << v.to_string();
  }
}

TEST_P(ValueFuzz, SingleByteCorruptionNeverGoesUnnoticed) {
  Rng rng(0xCAFE + GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value original = random_value(rng, 2);
    Bytes encoded = original.encode();
    if (encoded.size() < 2) continue;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(encoded.size()) - 1));
    const auto bit = rng.uniform_int(0, 7);
    encoded[pos] = static_cast<std::uint8_t>(encoded[pos] ^ (1u << bit));
    try {
      const Value decoded = Value::decode(encoded);
      // If it decodes, it must not silently equal the original while the
      // bytes differ in a semantic position... unless the flip landed in a
      // spot encoding the same logical value (cannot happen with this codec:
      // tags, varints and payloads are all significant).
      ASSERT_NE(decoded, original)
          << "byte " << pos << " bit " << bit << " of "
          << original.to_string();
    } catch (const ValueError&) {
      // Rejected: also fine.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzz, ::testing::Range(0, 5));

}  // namespace
}  // namespace rcs
