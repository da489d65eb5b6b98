// Allocation contract of the Value plane: a map costs one heap block however
// many small entries it holds, a copy costs one more, and lookups with a
// string-literal key cost none. Every brick call's args, status directive and
// reply is such a map, so these counts bound the request path's heap traffic.
#include <gtest/gtest.h>

#include <string>
#include <utility>

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

/// Allocations to copy, export and import a reply log of `n` records held
/// in cells, in the log's shapes: the FIFO of records, the snapshot
/// {entries: key -> reply, order: [key]}, and the importer's FIFO.
std::size_t allocations_to_ship_a_log(std::size_t n) {
  ValueList records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Value::shared(
        Value::map()
            .set("id", i)
            .set("result", Value::map().set("check", "ok").set("value", i))));
  }
  const std::size_t before = test::allocations();
  const ValueList copy = records;
  ValueMap entries;
  ValueList order;
  entries.reserve(copy.size());
  order.reserve(copy.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    const std::string key = "c1:" + std::to_string(100 + i);
    entries.emplace(key, copy[i]);
    order.emplace_back(key);
  }
  Value snapshot = Value::map();
  snapshot.set("entries", std::move(entries)).set("order", std::move(order));
  ValueList imported;
  imported.reserve(n);
  for (const auto& key : snapshot.at("order").as_list()) {
    imported.push_back(snapshot.at("entries").at(key.as_string()));
  }
  const std::size_t spent = test::allocations() - before;
  EXPECT_EQ(imported, records);
  EXPECT_EQ(&std::as_const(imported).back().as_map(),
            &std::as_const(records).back().as_map())
      << "the import shares the records";
  return spent;
}

TEST(ValueAlloc, ShippingAFullLogOfCellsAllocatesNothingPerRecord) {
  // 32 is the reply log's capacity: a full log ships for the same
  // allocations as a log of one record.
  EXPECT_EQ(allocations_to_ship_a_log(32), allocations_to_ship_a_log(1));
}

TEST(ValueAlloc, ContentDigestIsTheEncodingsHashAndAllocatesNothing) {
  // A sealed application result, as AppServerBase::with_checksum builds it.
  Value result = Value::map();
  result.set("check", 1).set("key", "k").set("value", 41).set(
      "blob", Bytes(300, 0x5A));
  Value stripped = result;
  stripped.as_map().erase("check");
  EXPECT_EQ(content_digest(result), xxh64(result.encode()));
  EXPECT_EQ(content_digest(result, "check"), xxh64(stripped.encode()));
  EXPECT_EQ(content_digest(stripped, "check"), xxh64(stripped.encode()));
  EXPECT_EQ(content_digest(Value(7), "check"), xxh64(Value(7).encode()));
  EXPECT_EQ(content_digest(Value::shared(result), "check"),
            xxh64(stripped.encode()));

  const std::size_t before = test::allocations();
  for (int i = 0; i < 10; ++i) (void)content_digest(result, "check");
  EXPECT_EQ(test::allocations(), before);
}

TEST(ValueAlloc, ValueIsAtMostFortyBytes) {
  // The map alternative is a vector, no longer the widest member.
  EXPECT_LE(sizeof(Value), 40u);
}

}  // namespace
}  // namespace rcs
