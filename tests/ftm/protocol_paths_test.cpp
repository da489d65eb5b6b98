// Targeted tests for the protocol kernel's hairier paths: message
// reordering (stash), abort-overtakes-forward, deferred exec requests,
// duplicate suppression of in-flight requests, peer-down completion of
// parked contexts, quiescence interaction with forwarded traffic, and the
// sender that travels beside a replica payload.
#include <gtest/gtest.h>

#include "client_request.hpp"
#include "duplex_fixture.hpp"
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/protocol.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

using Fixture = DuplexFixture;

TEST_F(Fixture, DuplicateWhileInFlightIsSuppressed) {
  deploy(FtmConfig::pbr());
  // First copy starts processing (compute takes 5ms); a duplicate arriving
  // mid-flight must neither restart the pipeline nor produce two replies.
  const Payload payload = client_request(hc.id(), 77, kv_incr("ctr"));
  hc.send(h0.id(), msg::kRequest, payload);
  sim.run_for(3 * sim::kMillisecond);
  ASSERT_EQ(rt0.kernel().in_flight(), 1u);
  hc.send(h0.id(), msg::kRequest, payload);  // duplicate, still in flight
  sim.run_for(2 * sim::kSecond);

  const Value got = roundtrip(kv_get("ctr"));
  EXPECT_EQ(got.at("result").at("value").as_int(), 1) << "executed once";
  EXPECT_EQ(rt0.kernel().counters().replies, 2u)
      << "one live reply + one final reply for the probe";
}

TEST_F(Fixture, AbortOvertakingForwardIsRemembered) {
  deploy(FtmConfig::lfr());
  // Simulate the reordered-wire case directly: the abort for a key arrives
  // at the follower BEFORE the forwarded request.
  const RequestKey key{9, 5};
  h0.send(h1.id(), msg::kReplica,
          make_payload({PeerPhase::kCtrl, PeerKind::kAbort, key,
                        Value::map().set("key", "c9:5")}));
  sim.run_for(10 * sim::kMillisecond);

  const Value forward = Value::map()
                            .set("key", "c9:5")
                            .set("client", 9)
                            .set("id", 5)
                            .set("request", kv_incr("ctr"));
  h0.send(h1.id(), msg::kReplica,
          make_payload({PeerPhase::kBefore, PeerKind::kRequest, key, forward}));
  sim.run_for(2 * sim::kSecond);

  EXPECT_EQ(rt1.kernel().in_flight(), 0u) << "aborted forward never started";
  EXPECT_EQ(rt1.kernel().counters().forwarded, 1u) << "the forward arrived";
  // The follower state must not contain the aborted increment.
  const Value state =
      state_manager_of(rt1.composite().child("server")).get_state();
  EXPECT_FALSE(state.at("entries").has("ctr"));
}

TEST_F(Fixture, LateNotifyAfterAbortedForwardDoesNotCrash) {
  deploy(FtmConfig::lfr());
  h0.send(h1.id(), msg::kReplica,
          make_payload({PeerPhase::kAfter, PeerKind::kNotify, RequestKey{9, 9},
                        Value::map().set("key", "c9:9").set("digest", 123)}));
  EXPECT_NO_THROW(sim.run_for(sim::kSecond));
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
  EXPECT_EQ(rt1.kernel().stashed(), 1u) << "the notify waits for its forward";
}

TEST_F(Fixture, FailedLeaderRequestAbortsFollowerContext) {
  // LFR⊕TR + nondeterministic app: every leader execution fails (no
  // majority); the follower's forwarded contexts must be cleaned up.
  deploy(FtmConfig::lfr_tr(), app::kSensor);
  Value reply;
  client.send(Value::map().set("op", "read").set("target", 40.0),
              [&](const Value& r) { reply = r; });
  sim.run_for(5 * sim::kSecond);
  ASSERT_TRUE(reply.is_map());
  EXPECT_TRUE(reply.has("error"));
  EXPECT_EQ(rt1.kernel().in_flight(), 0u)
      << "follower context for the failed request leaked";
}

TEST_F(Fixture, AFailedRequestIsLoggedUnderItsKeyText) {
  // Keys are integers inside the kernel; a log line names a request by its
  // text "c<client>:<id>".
  deploy(FtmConfig::lfr_tr(), app::kSensor);
  CapturingLog capture(LogLevel::kWarn);
  client.send(Value::map().set("op", "read").set("target", 40.0));
  sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(capture.contains(strf("request c", hc.id().value(), ":1 failed")));
}

TEST_F(Fixture, QuiesceDrainsDespiteFailingRequests) {
  deploy(FtmConfig::lfr_tr());
  h0.faults().permanent = true;  // every request fails with no-majority
  for (int i = 0; i < 3; ++i) {
    const Value reply = roundtrip(kv_incr("k"), 20 * sim::kSecond);
    EXPECT_TRUE(reply.has("error"));
  }
  bool drained0 = false, drained1 = false;
  rt0.quiesce([&] { drained0 = true; });
  rt1.quiesce([&] { drained1 = true; });
  sim.run_for(2 * sim::kSecond);
  EXPECT_TRUE(drained0);
  EXPECT_TRUE(drained1) << "orphaned forwarded contexts block quiescence";
  rt0.resume();
  rt1.resume();
}

TEST_F(Fixture, ExecRequestRacingLocalExecutionIsDeferred) {
  deploy(FtmConfig::a_lfr());
  h0.faults().permanent = true;
  // Three requests: each forces leader assert-failure -> exec_req to the
  // follower while the follower may still be computing the same request.
  for (int i = 1; i <= 3; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 20 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_EQ(reply.at("result").at("value").as_int(), i)
        << "deferred exec answered from the single local execution";
  }
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
}

TEST_F(Fixture, PeerDownCompletesParkedCheckpointWait) {
  deploy(FtmConfig::pbr());
  // Kill the backup while a request is between checkpoint and ack.
  Value reply;
  client.send(kv_incr("ctr"), [&](const Value& r) { reply = r; });
  sim.run_for(6 * sim::kMillisecond);  // compute done, checkpoint in flight
  h1.crash();
  sim.run_for(2 * sim::kSecond);
  ASSERT_TRUE(reply.is_map()) << "request parked forever on a dead peer";
  EXPECT_FALSE(reply.has("error"));
  EXPECT_EQ(rt0.kernel().role(), Role::kAlone);
}

TEST_F(Fixture, StashedNotifyIsConsumedOncePerKey) {
  deploy(FtmConfig::lfr());
  for (int i = 0; i < 5; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"));
    ASSERT_FALSE(reply.has("error"));
  }
  // The leader replies to the client in parallel with the follower's
  // notification; give the follower's last context time to consume it.
  sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(rt1.kernel().counters().forwarded, 5u);
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
  EXPECT_EQ(rt1.kernel().counters().divergences, 0u);
}

TEST_F(Fixture, PromotionMidPipelineServesBufferedClient) {
  deploy(FtmConfig::pbr());
  // Client request arrives at the backup while the primary is alive: it is
  // ignored; after promotion the SAME id must be served.
  const Payload payload = client_request(hc.id(), 500, kv_incr("ctr"));
  hc.send(h1.id(), msg::kRequest, payload);
  sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(rt1.kernel().counters().replies, 0u);

  h0.crash();
  sim.run_for(sim::kSecond);  // failure detector promotes the backup
  ASSERT_EQ(rt1.kernel().role(), Role::kAlone);
  hc.send(h1.id(), msg::kRequest, payload);
  sim.run_for(sim::kSecond);
  EXPECT_EQ(rt1.kernel().counters().replies, 1u);
}

TEST_F(Fixture, PbrSurvivesLossyReplicaLink) {
  // A dropped checkpoint or ack must not wedge the pipeline: the waiting
  // phase retransmits until the peer answers (bounded by the failure
  // detector). 10% message loss on the replica link, sequential workload.
  deploy(FtmConfig::pbr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.10;
  for (int i = 1; i <= 20; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 30 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
    ASSERT_EQ(reply.at("result").at("value").as_int(), i)
        << "retransmission executed a checkpointed request twice";
  }
  EXPECT_EQ(rt0.kernel().in_flight(), 0u);
}

TEST_F(Fixture, AssertRecoverySurvivesLossyReplicaLink) {
  // exec_req / exec_result can be lost too; the assert-recovery path must
  // retransmit rather than park forever.
  deploy(FtmConfig::a_pbr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.10;
  h0.faults().permanent = true;
  for (int i = 1; i <= 10; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 60 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
    ASSERT_EQ(reply.at("result").at("value").as_int(), i);
  }
}

TEST_F(Fixture, LfrFollowerGivesUpOnLostNotification) {
  // The LFR notification is fire-and-forget; when it is lost the follower
  // must not hold its forwarded context (and quiescence) hostage.
  deploy(FtmConfig::lfr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.25;
  for (int i = 1; i <= 15; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 60 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
  }
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.0;
  sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(rt1.kernel().in_flight(), 0u)
      << "follower contexts leaked on lost notifications";
}

TEST_F(Fixture, DeferredExecRequestIsAnsweredToItsAsker) {
  deploy(FtmConfig::a_lfr());
  h0.faults().permanent = true;  // the leader's assertion always fails
  // A slow follower is still computing the forwarded request when the
  // leader's exec_req arrives, so the follower defers it. The replay must
  // answer the leader directly: with a 30 s peer-retry period, a lost
  // sender would only be recovered by a retry round.
  h1.capacity().cpu_speed = 0.25;
  rt0.composite().set_property("protocol", "retry_us",
                               Value(std::int64_t{30 * sim::kSecond}));
  Value reply;
  bool got = false;
  client.send(kv_incr("ctr"), [&](const Value& r) {
    reply = r;
    got = true;
  });
  const sim::Time start = sim.now();
  std::size_t max_deferred = 0;
  while (!got && sim.now() - start < 60 * sim::kSecond && !sim.loop().empty()) {
    sim.loop().step();
    max_deferred = std::max(max_deferred, rt1.kernel().deferred());
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(max_deferred, 1u) << "the exec_req never took the defer path";
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
  EXPECT_LT(sim.now() - start, sim::kSecond) << "answered by a retry round";
  EXPECT_EQ(rt1.kernel().deferred(), 0u);
}

TEST_F(Fixture, DeliveryToAStoppedKernelThrows) {
  deploy(FtmConfig::pbr());
  rt1.composite().stop("protocol");
  const Payload message = make_payload(
      {PeerPhase::kAfter, PeerKind::kCheckpoint, RequestKey{1, 1}, Checkpoint{}});
  EXPECT_THROW(rt1.kernel().deliver_peer(message, h0.id().value()),
               ComponentError);
  const Payload request = client_request(hc.id(), 1, kv_incr("ctr"));
  EXPECT_THROW(rt1.kernel().deliver_client(request), ComponentError);
}

// --- Early acks: a hostless kernel driven message by message ---------------

/// Proceed brick that parks every request until the test resumes it.
class ParkingProceed final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& /*ctx*/) override {
    return wait_for_resume();
  }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }
};

/// After brick that waits for one checkpoint_ack per peer and stashes acks
/// that arrive before it waits.
class AckCountingAfter final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& /*ctx*/) override {
    return wait_for_group(PeerKind::kCheckpointAck, 2);
  }
  BrickStatus on_peer(const RequestCtx* ctx,
                      const PeerMessage& message) override {
    if (ctx == nullptr) {
      return message.kind == PeerKind::kCheckpointAck ? stash() : handled();
    }
    ++solicited;
    last_from = message.from;
    return done();
  }

  inline static int solicited = 0;
  inline static std::int64_t last_from = -1;
};

template <class B>
comp::ComponentTypeInfo test_brick_type(const char* type_name,
                                        const char* interface_name) {
  comp::ComponentTypeInfo info;
  info.type_name = type_name;
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", interface_name}};
  info.references = {{"control", iface::kProtocolControl}};
  info.factory = [] { return std::make_unique<B>(); };
  return info;
}

/// A hostless kernel, its reply log and a Before no-op, with the Proceed
/// and After test bricks it is given, in a two-peer group.
template <class Proceed, class After>
struct HostlessKernel {
  HostlessKernel() {
    registry.register_type(ProtocolKernel::type_info());
    registry.register_type(ReplyLogComponent::type_info());
    registry.register_type(sync_before_noop_type());
    registry.register_type(
        test_brick_type<Proceed>("test.proceed", iface::kProceed));
    registry.register_type(
        test_brick_type<After>("test.after", iface::kSyncAfter));
    root.add(kernel::kProtocol, "protocol");
    root.add(kernel::kReplyLog, "log");
    root.add(brick::kSyncBeforeNoop, "before");
    root.add("test.proceed", "exec");
    root.add("test.after", "after");
    for (const char* slot : {"before", "exec", "after"}) {
      root.wire("protocol", slot, slot, "in");
      root.wire(slot, "control", "protocol", "control");
    }
    root.wire("protocol", "replyLog", "log", "log");
    root.set_property("protocol", "peers",
                      Value(ValueList{Value(1), Value(2)}));
    for (const char* name : {"log", "before", "exec", "after", "protocol"}) {
      root.start(name);
    }
  }

  comp::ComponentRegistry registry;
  comp::Composite root{"hostless",
                       comp::CompositeEnv{nullptr, nullptr, &registry}};
  ProtocolKernel& kernel() {
    return dynamic_cast<ProtocolKernel&>(root.child("protocol"));
  }
  ReplyLogComponent& log() {
    return dynamic_cast<ReplyLogComponent&>(root.child("log"));
  }
};

TEST(EarlyAcks, StashedCheckpointAckCountsOncePerPeer) {
  HostlessKernel<ParkingProceed, AckCountingAfter> hostless;
  ProtocolKernel& kernel = hostless.kernel();
  AckCountingAfter::solicited = 0;

  kernel.deliver_client(client_request(HostId{9}, 1, Value::map()));
  ASSERT_EQ(kernel.in_flight(), 1u);  // parked in Proceed
  const auto ack = [&](std::int64_t from) {
    kernel.deliver_peer(make_payload({PeerPhase::kAfter, PeerKind::kCheckpointAck,
                                      RequestKey{9, 1}, CheckpointAck{}}),
                        from);
  };
  ack(1);  // early: the context is not waiting yet, so it is stashed
  kernel.resume_after({9, 1}, 0, Value(7));  // Proceed done; After waits
  EXPECT_EQ(kernel.in_flight(), 1u) << "one stashed ack completed a 2-peer wait";
  ack(1);  // a retransmission from the same peer counts nothing
  EXPECT_EQ(AckCountingAfter::solicited, 0);
  EXPECT_EQ(kernel.in_flight(), 1u);
  ack(2);
  EXPECT_EQ(AckCountingAfter::solicited, 1);
  EXPECT_EQ(AckCountingAfter::last_from, 2);
  EXPECT_EQ(kernel.in_flight(), 0u);
}

// --- One reply cell per result ---------------------------------------------

/// Proceed brick that builds the reply cell before its result exists, then
/// waits for the test to resume it with one.
class CellBuildingProceed final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& ctx) override {
    early = ctx.reply();
    return wait_for_resume();
  }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }

  inline static Value early;
};

/// After brick that builds the reply cell, then replaces the result once
/// and re-runs, as assertion recovery does (again_with).
class RecomputingAfter final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& ctx) override {
    cells.push_back(ctx.reply());
    if (cells.size() == 1) return again_with(Value(2));
    return done();
  }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }

  inline static std::vector<Value> cells;
};

TEST(ReplyCell, EveryResultWriteDropsTheCellBuiltBeforeIt) {
  HostlessKernel<CellBuildingProceed, RecomputingAfter> hostless;
  RecomputingAfter::cells.clear();

  hostless.kernel().deliver_client(client_request(HostId{9}, 4, Value::map()));
  EXPECT_TRUE(CellBuildingProceed::early.at("result").is_null());
  hostless.kernel().resume_after({9, 4}, 0, Value(1));  // resume's result

  const auto& cells = RecomputingAfter::cells;
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].at("result"), Value(1)) << "resume kept a stale cell";
  EXPECT_EQ(cells[1].at("result"), Value(2)) << "again kept a stale cell";
  EXPECT_EQ(cells[1].at("id").as_int(), 4);
  EXPECT_EQ(hostless.kernel().in_flight(), 0u);
  // The log records the last cell the brick built, by handle.
  const Value* logged = hostless.log().lookup({9, 4});
  ASSERT_NE(logged, nullptr);
  EXPECT_TRUE(logged->is_shared());
  EXPECT_EQ(&logged->at("result"), &cells[1].at("result"));
}

TEST_F(Fixture, CountersExposedThroughControlStats) {
  deploy(FtmConfig::pbr());
  (void)roundtrip(kv_incr("ctr"));
  const ProtocolKernel::Counters& counters = rt0.kernel().counters();
  EXPECT_EQ(counters.replies, 1u);
  EXPECT_EQ(counters.checkpoints_sent, 1u);
  EXPECT_EQ(counters.promotions, 0u);
}

}  // namespace
}  // namespace rcs::ftm::testing
