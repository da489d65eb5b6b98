// Allocation contract of the Value plane: a map costs one heap block however
// many small entries it holds, a copy costs one more, and lookups with a
// string-literal key cost none. Every brick call's args, status directive and
// reply is such a map, so these counts bound the request path's heap traffic.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

TEST(ValueAlloc, StatusDirectiveIsOneAllocation) {
  const std::size_t before = test::allocations();
  const Value status = Value::map().set("status", "done");
  EXPECT_EQ(test::allocations() - before, 1u);
  EXPECT_EQ(status.at("status").as_string(), "done");
}

TEST(ValueAlloc, FourScalarSetsAreOneAllocation) {
  const std::size_t before = test::allocations();
  Value args = Value::map();
  args.set("key", "k1").set("client", 3).set("id", 42).set("forwarded", false);
  EXPECT_EQ(test::allocations() - before, 1u);
  EXPECT_EQ(args.size(), 4u);
}

TEST(ValueAlloc, CopyingAnEightEntryScalarMapIsOneAllocation) {
  Value original = Value::map();
  for (const char* k : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    original.set(k, 7);
  }
  const std::size_t before = test::allocations();
  const Value copy = original;
  EXPECT_EQ(test::allocations() - before, 1u);
  EXPECT_EQ(copy, original);
}

TEST(ValueAlloc, LiteralKeyLookupsAllocateNothing) {
  Value v = Value::map();
  v.set("status", "done").set("expect_count", 2);
  std::size_t hits = 0;
  const std::size_t before = test::allocations();
  hits += v.has("status") ? 1 : 0;
  hits += v.has("missing") ? 0 : 1;
  hits += v.at("status").is_string() ? 1 : 0;
  hits += v.get_or("expect_count", Value(1)).as_int() == 2 ? 1 : 0;
  hits += v.get_or("absent", Value(1)).as_int() == 1 ? 1 : 0;
  EXPECT_EQ(test::allocations(), before);
  EXPECT_EQ(hits, 5u);
}

TEST(ValueAlloc, CopyingA64KiBBlobAllocatesNothing) {
  const Value blob(Bytes(64 * 1024, 0xAB));
  const std::size_t before = test::allocations();
  const Value copy = blob;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(test::allocations(), before);
  EXPECT_EQ(&copy.as_bytes(), &blob.as_bytes()) << "the copy shares the blob";
}

TEST(ValueAlloc, ValueIsAtMostFortyBytes) {
  // The map alternative is a vector, no longer the widest member.
  EXPECT_LE(sizeof(Value), 40u);
}

}  // namespace
}  // namespace rcs
