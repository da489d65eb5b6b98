// Unit tests for the kernel components (reply log; failure-detector timing;
// typed wires between the kernel, the bricks and the reply log; the started
// check of the typed entries the runtime calls).
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "../component/test_types.hpp"
#include "duplex_fixture.hpp"
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/failure_detector.hpp"
#include "rcs/ftm/protocol.hpp"
#include "rcs/ftm/reply_log.hpp"
#include "rcs/ftm/sync_after_duplex.hpp"

namespace rcs::ftm::testing {
namespace {

struct ReplyLogFixture : ::testing::Test {
  ReplyLogFixture() {
    register_components();
    root.add(kernel::kReplyLog, "log");
    root.start("log");
  }

  /// A reply log child of `composite`, through the face the kernel and the
  /// bricks call.
  static ReplyLog& face_of(comp::Composite& composite, const std::string& name) {
    return dynamic_cast<ReplyLog&>(composite.child(name));
  }
  static std::size_t size_of(const ReplyLog& log) {
    return log.export_all().records.size();
  }
  /// A snapshot's keys, oldest record first.
  static std::vector<RequestKey> keys_of(const ReplySnapshot& snapshot) {
    std::vector<RequestKey> keys;
    for (const auto& record : snapshot.records) keys.push_back(record.key);
    return keys;
  }
  static const Value* reply_in(const ReplySnapshot& snapshot,
                               const RequestKey& key) {
    for (const auto& record : snapshot.records) {
      if (record.key == key) return &record.reply;
    }
    return nullptr;
  }

  ReplyLog& reply_log() { return face_of(root, "log"); }
  const Value* lookup(const RequestKey& key) {
    return reply_log().lookup(key);
  }
  void record(const RequestKey& key, Value reply) {
    reply_log().record(key, std::move(reply));
  }
  std::size_t size() { return size_of(reply_log()); }

  comp::Composite root{"test"};
};

constexpr std::size_t kCapacity = ReplyLogComponent::kCapacity;
constexpr RequestKey kA{1, 1};
constexpr RequestKey kB{1, 2};
constexpr RequestKey kC{1, 3};
/// The i-th of a run of keys apart from kA, kB and kC.
constexpr RequestKey filler(std::size_t i) { return {2, i}; }

TEST_F(ReplyLogFixture, LookupMissReportsNotFound) {
  EXPECT_EQ(lookup(kA), nullptr);
}

TEST_F(ReplyLogFixture, RecordThenLookupHit) {
  record(kA, Value::map().set("result", 42));
  const Value* hit = lookup(kA);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->at("result").as_int(), 42);
}

TEST_F(ReplyLogFixture, RecordOverwritesSameKeyWithoutGrowth) {
  record(kA, Value::map().set("result", 1));
  record(kA, Value::map().set("result", 2));
  EXPECT_EQ(size(), 1u);
  EXPECT_EQ(lookup(kA)->at("result").as_int(), 2);
}

TEST_F(ReplyLogFixture, ExportImportRoundTrip) {
  record(kA, Value::map().set("result", 1));
  record(kB, Value::map().set("result", 2));
  const ReplySnapshot snapshot = reply_log().export_all();
  EXPECT_EQ(keys_of(snapshot), (std::vector<RequestKey>{kA, kB}));
  EXPECT_EQ(snapshot.upto, 2u);

  comp::Composite other{"other"};
  other.add(kernel::kReplyLog, "log");
  other.start("log");
  ReplyLog& imported = face_of(other, "log");
  imported.import_all(snapshot);
  EXPECT_EQ(size_of(imported), 2u);
  EXPECT_NE(imported.lookup(kB), nullptr);
}

TEST_F(ReplyLogFixture, CapacityEvictsOldestFirst) {
  for (std::size_t i = 0; i < kCapacity + 2; ++i) {
    record(filler(i), Value::map().set("result", i));
  }
  EXPECT_EQ(size(), kCapacity);
  EXPECT_EQ(lookup(filler(0)), nullptr);
  EXPECT_EQ(lookup(filler(1)), nullptr);
  EXPECT_NE(lookup(filler(2)), nullptr);
  EXPECT_NE(lookup(filler(kCapacity + 1)), nullptr);
}

TEST_F(ReplyLogFixture, RecordsAreCellsThatExportsShare) {
  record(kA, Value::map().set("result", Value::map().set("value", 1)));
  const Value* hit = lookup(kA);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->is_shared());
  const ReplySnapshot snapshot = reply_log().export_all();
  const Value* exported = reply_in(snapshot, kA);
  ASSERT_NE(exported, nullptr);
  EXPECT_TRUE(exported->is_shared());
  EXPECT_EQ(&exported->as_map(), &hit->as_map()) << "exported by handle";

  comp::Composite other{"other"};
  other.add(kernel::kReplyLog, "log");
  other.start("log");
  ReplyLog& imported = face_of(other, "log");
  imported.import_all(snapshot);
  EXPECT_EQ(&imported.lookup(kA)->as_map(), &hit->as_map())
      << "imported by handle";
}

TEST_F(ReplyLogFixture, DecodedAndSharedSnapshotsImportToEqualLogs) {
  // A full log, past capacity, in an order whose keys do not sort FIFO.
  for (std::size_t i = 0; i < kCapacity + 3; ++i) {
    record(RequestKey{static_cast<std::int64_t>((i * 7) % 11), i},
           Value::map().set("id", i).set(
               "result", Value::map().set("check", "ok").set("value", i)));
  }
  const ReplySnapshot shared = reply_log().export_all();
  // The same records with replies decoded from their bytes: no cells.
  ReplySnapshot decoded = shared;
  for (auto& r : decoded.records) r.reply = Value::decode(r.reply.encode());
  ASSERT_FALSE(reply_in(decoded, RequestKey{0, 33})->is_shared());
  ASSERT_TRUE(reply_in(shared, RequestKey{0, 33})->is_shared());

  comp::Composite from_cells{"cells"}, from_bytes{"bytes"};
  for (comp::Composite* c : {&from_cells, &from_bytes}) {
    c->add(kernel::kReplyLog, "log");
    c->start("log");
  }
  face_of(from_cells, "log").import_all(shared);
  face_of(from_bytes, "log").import_all(decoded);
  EXPECT_TRUE(face_of(from_bytes, "log").lookup({0, 33})->is_shared())
      << "an import records each reply as a cell";
  const ReplySnapshot cells_export = face_of(from_cells, "log").export_all();
  const ReplySnapshot bytes_export = face_of(from_bytes, "log").export_all();
  EXPECT_EQ(size_of(face_of(from_bytes, "log")), kCapacity);
  EXPECT_EQ(keys_of(cells_export), keys_of(shared));
  EXPECT_EQ(keys_of(bytes_export), keys_of(shared));
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(cells_export.records[i].reply, shared.records[i].reply);
    EXPECT_EQ(bytes_export.records[i].reply, shared.records[i].reply);
  }
  EXPECT_EQ(cells_export.upto, bytes_export.upto);
}

// --- An import refuses what no peer's log makes, before applying anything --

struct ReplyLogImportFixture : ReplyLogFixture {
  ReplyLogImportFixture() {
    record(kA, Value::map().set("result", 1));
    record(kB, Value::map().set("result", 2));
    before = reply_log().export_all();
  }

  void expect_unchanged() {
    EXPECT_EQ(size(), 2u);
    EXPECT_NE(lookup(kA), nullptr);
    EXPECT_NE(lookup(kB), nullptr);
    EXPECT_EQ(lookup(filler(100)), nullptr);
    const ReplySnapshot now = reply_log().export_all();
    EXPECT_EQ(keys_of(now), keys_of(before));
    EXPECT_EQ(now.upto, before.upto);
  }

  ReplySnapshot before;
};

TEST_F(ReplyLogImportFixture, SnapshotPastCapacityIsRefused) {
  // No exporter's log holds more than kCapacity records.
  ReplySnapshot big;
  for (std::size_t i = 0; i <= kCapacity; ++i) {
    big.records.push_back(
        {filler(100 + i), Value::shared(Value::map().set("result", 9))});
  }
  big.upto = 40;
  EXPECT_THROW(reply_log().import_all(big), FtmError);
  expect_unchanged();
  EXPECT_THROW((void)reply_log().import_delta(big), FtmError);
  expect_unchanged();
}

TEST_F(ReplyLogFixture, ReRecordKeepsFifoSlot) {
  // kCapacity + 2 records: a, kCapacity - 1 fillers, a again, then c.
  record(kA, Value::map().set("result", 1));
  for (std::size_t i = 1; i < kCapacity; ++i) {
    record(filler(i), Value::map().set("result", 2));
  }
  record(kA, Value::map().set("result", 3));  // updated in place
  record(kC, Value::map().set("result", 4));  // evicts a, the oldest slot
  EXPECT_EQ(lookup(kA), nullptr);
  EXPECT_NE(lookup(filler(1)), nullptr);
  const auto order = keys_of(reply_log().export_all());
  ASSERT_EQ(order.size(), kCapacity);
  EXPECT_EQ(order.front(), filler(1));
  EXPECT_EQ(order.back(), kC);
}

TEST_F(ReplyLogFixture, LookupAndRecordOnAFullLogAllocateNothing) {
  // Keys are integers and every reply a cell, so a full ring answers
  // lookups, re-records in place and evicts for a new key without touching
  // the heap.
  std::vector<Value> cells;
  for (std::size_t i = 0; i < kCapacity + 8; ++i) {
    cells.push_back(Value::shared(Value::map().set("id", i)));
  }
  for (std::size_t i = 0; i < kCapacity; ++i) record(filler(i), cells[i]);
  ReplyLog& log = reply_log();
  ASSERT_EQ(size(), kCapacity);

  std::size_t hits = 0;
  const std::size_t before = rcs::test::allocations();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    hits += log.lookup(filler(i)) != nullptr ? 1 : 0;
  }
  hits += log.lookup(kA) != nullptr ? 1 : 0;  // a miss scans the whole ring
  for (std::size_t i = 0; i < kCapacity; ++i) log.record(filler(i), cells[i]);
  for (std::size_t i = kCapacity; i < kCapacity + 8; ++i) {
    log.record(filler(i), cells[i]);  // evicts the oldest
  }
  const std::size_t spent = rcs::test::allocations() - before;

  EXPECT_EQ(hits, kCapacity);
  EXPECT_EQ(spent, 0u);
  EXPECT_EQ(lookup(filler(7)), nullptr);
  EXPECT_EQ(&lookup(filler(kCapacity + 7))->as_map(),
            &std::as_const(cells[kCapacity + 7]).as_map())
      << "recorded by handle";
}

// --- Typed wires -----------------------------------------------------------

/// A stand-in common part: declares one service and implements no face.
comp::ComponentTypeInfo faceless_type(const char* type_name,
                                      const char* service,
                                      const char* interface_name) {
  return comp::testing::test_type<comp::testing::Other>(
      type_name, {{service, interface_name}});
}

/// Types a "detector" reference as the kernel types its own: typed_face
/// gives rcs.FailureDetector no C++ face, so the wire holds none.
class DetectorCaller : public comp::Component {
 public:
  static comp::ComponentTypeInfo type_info() {
    return comp::testing::test_type<DetectorCaller>(
        "test.detectorCaller", {},
        {{"detector", iface::kFailureDetector, /*required=*/false}});
  }

  void call_detector() { (void)face<FailureDetectorComponent>(0); }

 protected:
  void* resolve_face(const comp::PortSpec& reference,
                     comp::Component& target) override {
    return typed_face(reference, target);
  }
};

TEST(TypedWires, SlotConstantsAreCheckedAgainstTheDeclaredOrder) {
  // face<F>(slot) trusts a type's slot constants, so registration checks
  // them: each named reference sits in its slot, and one the type does not
  // declare lies past its references.
  comp::ComponentTypeInfo info = sync_after_pbr_assert_type();
  EXPECT_NO_THROW(SyncAfterDuplexBase::kSlots.check(info));
  EXPECT_NO_THROW(SyncAfterDuplexBase::kSlots.check(sync_after_pbr_type()));
  std::swap(info.references[0], info.references[1]);
  EXPECT_THROW(SyncAfterDuplexBase::kSlots.check(info), LogicError);
  EXPECT_THROW(check_slots(sync_after_noop_type(), {{0, "replyLog"}}),
               LogicError);
  EXPECT_THROW(check_slots(sync_after_pbr_type(), {{7, "state"}}), LogicError);
  EXPECT_NO_THROW(check_slots(ProtocolKernel::type_info(), {{1, "exec"}}));
}

TEST(TypedWires, TargetWithoutTheFaceFailsTheWire) {
  comp::ComponentRegistry registry;
  registry.register_type(FailureDetectorComponent::type_info());
  registry.register_type(sync_after_pbr_type());
  registry.register_type(
      faceless_type("test.control", "control", iface::kProtocolControl));
  registry.register_type(faceless_type("test.log", "log", iface::kReplyLog));
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

TEST(TypedWires, WireWithoutAFaceRefusesFaceCalls) {
  comp::ComponentRegistry registry;
  registry.register_type(FailureDetectorComponent::type_info());
  registry.register_type(DetectorCaller::type_info());
  comp::Composite root{"typed",
                       comp::CompositeEnv{nullptr, nullptr, &registry}};
  root.add(kernel::kFailureDetector, "fd");
  root.add("test.detectorCaller", "caller");
  root.wire("caller", "detector", "fd", "fd");
  root.start("caller");
  EXPECT_TRUE(root.is_wired("caller", "detector"));
  auto& caller = dynamic_cast<DetectorCaller&>(root.child("caller"));
  try {
    caller.call_detector();
    FAIL() << "a call through a wire without a face did not throw";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("reference caller.detector has no "
                                         "typed face"),
              std::string::npos)
        << e.what();
  }
}

using TypedWireFixture = DuplexFixture;

TEST_F(TypedWireFixture, RewiredReplyLogTakesTheNextRecord) {
  deploy(FtmConfig::pbr());
  roundtrip(kv_put("a", 1));
  comp::Composite& ftm = rt0.composite();
  const auto size_of = [&](const std::string& name) {
    return ReplyLogFixture::size_of(ReplyLogFixture::face_of(ftm, name));
  };
  const auto logged = size_of("replyLog");
  ASSERT_GT(logged, 0u);
  ftm.add(kernel::kReplyLog, "log2");
  ftm.start("log2");
  ftm.unwire("protocol", "replyLog");
  ftm.wire("protocol", "replyLog", "log2", "log");
  roundtrip(kv_put("b", 2));
  EXPECT_EQ(size_of("log2"), 1u);
  EXPECT_EQ(size_of("replyLog"), logged);
}

// --- Typed entries from outside the composite -----------------------------

using ValueOpFixture = DuplexFixture;

TEST_F(ValueOpFixture, TypedEntriesOnAStoppedTargetThrow) {
  deploy(FtmConfig::pbr());
  comp::Composite& ftm = rt0.composite();
  ftm.stop("detector");
  EXPECT_THROW(rt0.detector().on_heartbeat(Value::map().set("from", 1)),
               ComponentError);
  ftm.stop("protocol");
  ProtocolKernel& kernel = rt0.kernel();
  EXPECT_THROW(kernel.quiesce(), ComponentError);
  EXPECT_THROW(kernel.unblock(), ComponentError);
  EXPECT_THROW(kernel.join(), ComponentError);
  EXPECT_THROW(kernel.peer_suspected(1), ComponentError);
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
  EXPECT_EQ(rt0.kernel().alive_peers(),
            std::vector<std::int64_t>{static_cast<std::int64_t>(h1.id().value())});
}

}  // namespace
}  // namespace rcs::ftm::testing
