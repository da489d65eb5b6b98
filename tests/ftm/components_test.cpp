// Unit tests for the kernel components (reply log; failure-detector timing;
// typed wires between the kernel, the bricks and the reply log).
#include <gtest/gtest.h>

#include "duplex_fixture.hpp"
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/failure_detector.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

struct ReplyLogFixture : ::testing::Test {
  ReplyLogFixture() {
    register_components();
    root.add(kernel::kReplyLog, "log");
    root.start("log");
  }

  Value lookup(const std::string& key) {
    return root.invoke("log", "log", "lookup", Value::map().set("key", key));
  }
  void record(const std::string& key, Value reply) {
    root.invoke("log", "log", "record",
                Value::map().set("key", key).set("reply", std::move(reply)));
  }
  std::int64_t size() { return root.invoke("log", "log", "size", {}).as_int(); }

  comp::Composite root{"test"};
};

TEST_F(ReplyLogFixture, LookupMissReportsNotFound) {
  EXPECT_FALSE(lookup("c1:1").at("found").as_bool());
}

TEST_F(ReplyLogFixture, RecordThenLookupHit) {
  record("c1:1", Value::map().set("result", 42));
  const Value hit = lookup("c1:1");
  ASSERT_TRUE(hit.at("found").as_bool());
  EXPECT_EQ(hit.at("reply").at("result").as_int(), 42);
}

TEST_F(ReplyLogFixture, RecordOverwritesSameKeyWithoutGrowth) {
  record("k", Value::map().set("result", 1));
  record("k", Value::map().set("result", 2));
  EXPECT_EQ(size(), 1);
  EXPECT_EQ(lookup("k").at("reply").at("result").as_int(), 2);
}

TEST_F(ReplyLogFixture, ExportImportRoundTrip) {
  record("a", Value::map().set("result", 1));
  record("b", Value::map().set("result", 2));
  const Value snapshot = root.invoke("log", "log", "export", {});

  comp::Composite other{"other"};
  other.add(kernel::kReplyLog, "log");
  other.start("log");
  other.invoke("log", "log", "import", snapshot);
  EXPECT_EQ(other.invoke("log", "log", "size", {}).as_int(), 2);
  EXPECT_TRUE(other.invoke("log", "log", "lookup",
                           Value::map().set("key", "b"))
                  .at("found")
                  .as_bool());
}

TEST_F(ReplyLogFixture, CapacityEvictsOldestFirst) {
  root.set_property("log", "capacity", Value(3));
  for (int i = 0; i < 5; ++i) {
    record(strf("k", i), Value::map().set("result", i));
  }
  EXPECT_EQ(size(), 3);
  EXPECT_FALSE(lookup("k0").at("found").as_bool());
  EXPECT_FALSE(lookup("k1").at("found").as_bool());
  EXPECT_TRUE(lookup("k4").at("found").as_bool());
}

TEST_F(ReplyLogFixture, ClearEmptiesLog) {
  record("a", Value::map());
  root.invoke("log", "log", "clear", {});
  EXPECT_EQ(size(), 0);
}

TEST_F(ReplyLogFixture, ImportRejectsInconsistentSnapshot) {
  Value bad = Value::map();
  bad.set("entries", Value::map());
  bad.set("order", Value(ValueList{Value("ghost")}));
  EXPECT_THROW(root.invoke("log", "log", "import", bad), FtmError);
}

// --- Imports are validated whole before anything is applied ---------------

struct ReplyLogImportFixture : ReplyLogFixture {
  ReplyLogImportFixture() {
    record("a", Value::map().set("result", 1));
    record("b", Value::map().set("result", 2));
    before = root.invoke("log", "log", "export", {});
  }

  static Value snapshot(ValueList order) {
    Value out = Value::map();
    out.set("entries", Value::map().set("x", Value::map().set("result", 9)))
        .set("order", Value(std::move(order)))
        .set("from", 0)
        .set("upto", 5);
    return out;
  }

  void expect_unchanged() {
    EXPECT_EQ(size(), 2);
    EXPECT_TRUE(lookup("a").at("found").as_bool());
    EXPECT_TRUE(lookup("b").at("found").as_bool());
    EXPECT_FALSE(lookup("x").at("found").as_bool());
    EXPECT_EQ(root.invoke("log", "log", "export", {}), before);
  }

  Value before;
};

TEST_F(ReplyLogImportFixture, ImportWithMissingKeyLeavesLogUnchanged) {
  EXPECT_THROW(root.invoke("log", "log", "import",
                           snapshot({Value("x"), Value("ghost")})),
               FtmError);
  expect_unchanged();
}

TEST_F(ReplyLogImportFixture, ImportDeltaWithMissingKeyRecordsNothing) {
  EXPECT_THROW(root.invoke("log", "log", "import_delta",
                           snapshot({Value("x"), Value("ghost")})),
               FtmError);
  expect_unchanged();
}

TEST_F(ReplyLogImportFixture, DuplicateOrderKeyIsRefused) {
  // Two FIFO slots for one entry would let an eviction drop the live entry
  // and the next export name a key it has no entry for.
  EXPECT_THROW(root.invoke("log", "log", "import",
                           snapshot({Value("x"), Value("x")})),
               FtmError);
  expect_unchanged();
  EXPECT_THROW(root.invoke("log", "log", "import_delta",
                           snapshot({Value("x"), Value("x")})),
               FtmError);
  expect_unchanged();
}

TEST_F(ReplyLogFixture, ReRecordKeepsFifoSlot) {
  root.set_property("log", "capacity", Value(2));
  record("a", Value::map().set("result", 1));
  record("b", Value::map().set("result", 2));
  record("a", Value::map().set("result", 3));  // updated in place
  record("c", Value::map().set("result", 4));  // evicts a, the oldest slot
  EXPECT_FALSE(lookup("a").at("found").as_bool());
  EXPECT_TRUE(lookup("b").at("found").as_bool());
  const Value order = root.invoke("log", "log", "export", {}).at("order");
  EXPECT_EQ(order, Value(ValueList{Value("b"), Value("c")}));
}

TEST_F(ReplyLogFixture, UnknownOpThrows) {
  EXPECT_THROW(root.invoke("log", "log", "explode", {}), FtmError);
}

// --- Typed wires -----------------------------------------------------------

comp::ComponentTypeInfo fake_type(const char* type_name, const char* service,
                                  const char* interface_name) {
  return comp::LambdaComponent::make_type(
      type_name, {{service, interface_name}}, {},
      [](const std::string&, const std::string&, const Value&) {
        return Value{};
      });
}

TEST(TypedWires, TargetWithoutTheFaceFailsTheWire) {
  comp::ComponentRegistry registry;
  registry.register_type(FailureDetectorComponent::type_info());
  registry.register_type(sync_after_pbr_type());
  registry.register_type(
      fake_type("test.control", "control", iface::kProtocolControl));
  registry.register_type(fake_type("test.log", "log", iface::kReplyLog));
  comp::Composite root{"typed", comp::CompositeEnv{nullptr, nullptr, &registry}};
  root.add(kernel::kFailureDetector, "fd");
  root.add(brick::kSyncAfterPbr, "after");
  root.add("test.control", "control");
  root.add("test.log", "log");
  // The interface names match, but neither target implements the C++ face
  // the caller's reference is typed as.
  EXPECT_THROW(root.wire("fd", "control", "control", "control"),
               ComponentError);
  EXPECT_THROW(root.wire("after", "replyLog", "log", "log"), ComponentError);
  EXPECT_FALSE(root.is_wired("fd", "control"));
  EXPECT_FALSE(root.is_wired("after", "replyLog"));
}

using TypedWireFixture = DuplexFixture;

TEST_F(TypedWireFixture, RewiredReplyLogTakesTheNextRecord) {
  deploy(FtmConfig::pbr());
  roundtrip(kv_put("a", 1));
  comp::Composite& ftm = rt0.composite();
  const auto logged = ftm.invoke("replyLog", "log", "size", {}).as_int();
  ASSERT_GT(logged, 0);
  ftm.add(kernel::kReplyLog, "log2");
  ftm.start("log2");
  ftm.unwire("protocol", "replyLog");
  ftm.wire("protocol", "replyLog", "log2", "log");
  roundtrip(kv_put("b", 2));
  EXPECT_EQ(ftm.invoke("log2", "log", "size", {}).as_int(), 1);
  EXPECT_EQ(ftm.invoke("replyLog", "log", "size", {}).as_int(), logged);
}

// --- Failure detector timing ----------------------------------------------

using FdFixture = DuplexFixture;

TEST_F(FdFixture, NoSuspicionWhileBothAlive) {
  deploy(FtmConfig::pbr());
  sim.run_for(2 * sim::kSecond);
  EXPECT_EQ(rt0.kernel().role(), Role::kPrimary);
  EXPECT_EQ(rt1.kernel().role(), Role::kBackup);
}

TEST_F(FdFixture, SuspicionLatencyIsBoundedByTimeoutPlusInterval) {
  deploy(FtmConfig::pbr());
  sim.run_for(sim::kSecond);
  const sim::Time crash_time = sim.now() + 10 * sim::kMillisecond;
  inject.crash_at(h1.id(), crash_time);
  // Default: 200ms timeout + 50ms check interval (+1 beat of slack).
  sim.run_for(10 * sim::kMillisecond + 300 * sim::kMillisecond);
  EXPECT_EQ(rt0.kernel().role(), Role::kAlone);
}

TEST_F(FdFixture, PartitionCausesMutualSuspicion) {
  deploy(FtmConfig::pbr());
  sim.run_for(500 * sim::kMillisecond);
  sim.network().set_partitioned(h0.id(), h1.id(), true);
  sim.run_for(sim::kSecond);
  // Both sides lose heartbeats: classic split-brain exposure of duplex
  // protocols under partition (documented limitation; clients keep talking
  // to the original primary in our model).
  EXPECT_EQ(rt0.kernel().role(), Role::kAlone);
  EXPECT_EQ(rt1.kernel().role(), Role::kAlone);
}

TEST_F(FdFixture, HeartbeatRecoveryReportsPeerAgain) {
  deploy(FtmConfig::pbr());
  sim.run_for(500 * sim::kMillisecond);
  sim.network().set_partitioned(h0.id(), h1.id(), true);
  sim.run_for(sim::kSecond);
  sim.network().set_partitioned(h0.id(), h1.id(), false);
  sim.run_for(500 * sim::kMillisecond);
  const Value alive = rt0.composite().invoke("detector", "fd", "peer_alive", {});
  EXPECT_TRUE(alive.as_bool());
}

}  // namespace
}  // namespace rcs::ftm::testing
