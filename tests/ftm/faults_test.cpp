// Value-fault behaviour: which FTM masks which fault (the dynamics behind
// Table 1's fault-model rows), plus the runtime detection events that feed
// the monitoring engine.
#include <gtest/gtest.h>

#include "client_request.hpp"
#include "duplex_fixture.hpp"
#include "rcs/app/app_base.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

using app::AppServerBase;
using Fixture = DuplexFixture;

/// Extract the application-level result and verify its checksum.
bool result_checksum_ok(const Value& reply) {
  return !reply.has("error") &&
         AppServerBase::checksum_ok(reply.at("result"));
}

TEST_F(Fixture, PlainPbrDeliversCorruptedResultUndetected) {
  // PBR's fault model is crash-only (Table 1): an injected transient value
  // fault slips through to the client — the motivation for adapting the FTM
  // when the fault model changes.
  deploy(FtmConfig::pbr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_get("missing"));
  ASSERT_FALSE(reply.has("error"));
  EXPECT_FALSE(result_checksum_ok(reply)) << "corruption reached the client";
}

TEST_F(Fixture, PbrTrMasksTransientFault) {
  deploy(FtmConfig::pbr_tr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_FALSE(reply.has("error"));
  EXPECT_TRUE(result_checksum_ok(reply));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
  EXPECT_EQ(rt0.kernel().counters().tr_mismatches, 1u);
}

TEST_F(Fixture, LfrTrMasksTransientFault) {
  deploy(FtmConfig::lfr_tr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_FALSE(reply.has("error"));
  EXPECT_TRUE(result_checksum_ok(reply));
  EXPECT_EQ(rt0.kernel().counters().tr_mismatches, 1u);
}

TEST_F(Fixture, TrSingleHostMasksTransientFault) {
  deploy(FtmConfig::tr());
  h0.faults().transient_pending = 1;
  Value reply;
  Client solo{sim.add_host("solo-client"), {h0.id()}};
  solo.send(kv_incr("ctr"), [&](const Value& r) { reply = r; });
  sim.run_for(3 * sim::kSecond);
  ASSERT_TRUE(reply.is_map());
  ASSERT_FALSE(reply.has("error"));
  EXPECT_TRUE(result_checksum_ok(reply));
}

TEST_F(Fixture, TrStateIsConsistentAfterVoting) {
  deploy(FtmConfig::pbr_tr());
  h0.faults().transient_pending = 1;
  (void)roundtrip(kv_incr("ctr"));
  // Repeated execution with state restore must leave exactly ONE increment.
  const Value got = roundtrip(kv_get("ctr"));
  EXPECT_EQ(got.at("result").at("value").as_int(), 1);
}

TEST_F(Fixture, APbrMasksTransientViaReexecutionOnBackup) {
  deploy(FtmConfig::a_pbr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_TRUE(result_checksum_ok(reply));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
  EXPECT_EQ(rt0.kernel().counters().assertion_failures, 1u);
}

TEST_F(Fixture, APbrReexecutedResultReachesClientAndBothLogs) {
  // The primary's own result is replaced by the backup's re-execution: the
  // client, the primary's reply log and the backup's record of the
  // checkpoint's pending_reply must all hold the final result.
  deploy(FtmConfig::a_pbr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_TRUE(result_checksum_ok(reply)) << reply.to_string();
  ASSERT_EQ(rt0.kernel().counters().assertion_failures, 1u);
  const RequestKey key{hc.id().value(), 1};
  for (FtmRuntime* rt : {&rt0, &rt1}) {
    const auto& log =
        dynamic_cast<const ReplyLogComponent&>(rt->composite().child("replyLog"));
    const Value* logged = log.lookup(key);
    ASSERT_NE(logged, nullptr) << rt->host().name();
    EXPECT_EQ(logged->at("result"), reply.at("result")) << rt->host().name();
  }
}

TEST_F(Fixture, ALfrMasksTransientViaReexecutionOnFollower) {
  deploy(FtmConfig::a_lfr());
  h0.faults().transient_pending = 1;
  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_TRUE(result_checksum_ok(reply));
  EXPECT_EQ(rt0.kernel().counters().assertion_failures, 1u);
}

TEST_F(Fixture, APbrSurvivesPermanentFaultOnPrimary) {
  // Permanent value fault (hardware aging): every primary computation is
  // corrupted; A&PBR keeps answering correctly by re-executing on the backup.
  deploy(FtmConfig::a_pbr());
  h0.faults().permanent = true;
  for (int i = 1; i <= 3; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_TRUE(result_checksum_ok(reply));
    EXPECT_EQ(reply.at("result").at("value").as_int(), i);
  }
  EXPECT_GE(rt0.kernel().counters().assertion_failures, 3u);
}

TEST_F(Fixture, ALfrSurvivesPermanentFaultOnLeader) {
  deploy(FtmConfig::a_lfr());
  h0.faults().permanent = true;
  for (int i = 1; i <= 3; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_TRUE(result_checksum_ok(reply));
    EXPECT_EQ(reply.at("result").at("value").as_int(), i);
  }
}

TEST_F(Fixture, BothReplicasPermanentlyFaultyYieldsErrorReply) {
  deploy(FtmConfig::a_pbr());
  h0.faults().permanent = true;
  h1.faults().permanent = true;
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  EXPECT_TRUE(reply.has("error")) << reply.to_string();
}

TEST_F(Fixture, AssertionFailureWithoutPeerFailsSafely) {
  deploy(FtmConfig::a_pbr());
  // Kill the backup first, then inject: no re-execution target remains.
  inject.crash_at(h1.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  ASSERT_EQ(rt0.kernel().role(), Role::kAlone);
  h0.faults().permanent = true;
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  EXPECT_TRUE(reply.has("error")) << "unsafe result must not be delivered";
}

TEST_F(Fixture, RecoveryBlocksMaskPlantedSoftwareFault) {
  // A development fault in the primary variant (§2's third fault class):
  // increments come out negated — wrong but correctly checksummed, so only
  // the semantic acceptance test can catch it; the diversified alternate
  // masks it (§3.2.1's recovery blocks).
  deploy(FtmConfig::pbr_rb());
  for (std::size_t i = 0; i < 2; ++i) {
    auto& rt = i == 0 ? rt0 : rt1;
    rt.composite().set_property("server", "primary_bug", Value(true));
  }
  for (int i = 1; i <= 3; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_EQ(reply.at("result").at("value").as_int(), i);
  }
  // The acceptance test fired once per request.
  EXPECT_EQ(rt0.kernel().counters().replies, 3u);
}

TEST_F(Fixture, TrCannotMaskSoftwareFaults) {
  // The bug is deterministic: repetition reproduces it, both runs agree,
  // and the wrong (but checksummed) result is delivered — why development
  // faults need diversity, not redundancy.
  deploy(FtmConfig::pbr_tr());
  rt0.composite().set_property("server", "primary_bug", Value(true));
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_LT(reply.at("result").at("value").as_int(), 0)
      << "TR delivered the buggy result";
}

TEST_F(Fixture, ADuplexCannotMaskCommonModeSoftwareFaults) {
  // Identical replicas share the bug: re-execution on the peer produces the
  // same wrong answer — the paper's point that A&Duplex handles software
  // faults only "when replicas are diversified".
  deploy(FtmConfig::a_pbr());
  for (std::size_t i = 0; i < 2; ++i) {
    auto& rt = i == 0 ? rt0 : rt1;
    rt.composite().set_property("server", "primary_bug", Value(true));
  }
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  EXPECT_TRUE(reply.has("error")) << reply.to_string();
}

TEST_F(Fixture, RecoveryBlocksAlsoMaskTransients) {
  deploy(FtmConfig::rb());
  h0.faults().transient_pending = 1;
  Value reply;
  Client solo{sim.add_host("rb-client"), {h0.id()}};
  solo.send(kv_incr("ctr"), [&](const Value& r) { reply = r; });
  sim.run_for(5 * sim::kSecond);
  ASSERT_TRUE(reply.is_map());
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
}

TEST_F(Fixture, RecoveryBlocksStateConsistentAfterFallback) {
  deploy(FtmConfig::pbr_rb());
  rt0.composite().set_property("server", "primary_bug", Value(true));
  rt1.composite().set_property("server", "primary_bug", Value(true));
  for (int i = 0; i < 3; ++i) (void)roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  // Primary rejected + alternate executed = exactly one increment each.
  const Value got = roundtrip(kv_get("ctr"), 10 * sim::kSecond);
  EXPECT_EQ(got.at("result").at("value").as_int(), 3);
}

TEST_F(Fixture, NondeterministicAppUnderLfrReportsDivergence) {
  // Deploying LFR under a non-deterministic application violates Table 1's
  // determinism requirement; the follower's digest comparison surfaces it.
  deploy(FtmConfig::lfr(), app::kSensor);
  for (int i = 0; i < 5; ++i) {
    (void)roundtrip(Value::map().set("op", "read").set("target", 40.0));
  }
  EXPECT_GE(rt1.kernel().counters().divergences, 1u);
}

TEST_F(Fixture, NondeterministicAppUnderPbrIsFine) {
  deploy(FtmConfig::pbr(), app::kSensor);
  for (int i = 0; i < 5; ++i) {
    const Value reply =
        roundtrip(Value::map().set("op", "read").set("target", 40.0));
    ASSERT_FALSE(reply.has("error"));
  }
  EXPECT_EQ(rt1.kernel().counters().divergences, 0u);
}

TEST_F(Fixture, NondeterministicAppUnderTrFailsRequests) {
  // TR re-executes and compares: a non-deterministic app can never produce
  // a majority — Table 1's determinism requirement observed at runtime.
  deploy(FtmConfig::pbr_tr(), app::kSensor);
  const Value reply =
      roundtrip(Value::map().set("op", "read").set("target", 40.0),
                10 * sim::kSecond);
  EXPECT_TRUE(reply.has("error"));
}

TEST_F(Fixture, ASensorToleratesNondeterminismViaSemanticAssertion) {
  // A&Duplex's assertion is a semantic range property, not an equality
  // check, so it accepts non-deterministic results (Table 1: A&Duplex
  // supports non-deterministic applications).
  deploy(FtmConfig::a_pbr(), app::kSensor);
  const Value reply =
      roundtrip(Value::map().set("op", "read").set("target", 40.0));
  ASSERT_FALSE(reply.has("error"));
  const double reading = reply.at("result").at("reading").as_double();
  EXPECT_GE(reading, 0.0);
  EXPECT_LE(reading, 100.0);
}

TEST_F(Fixture, DeltaFailoverServesLastAckedRequestExactlyOnce) {
  // A run of incremental checkpoints carries both the dirty state and the
  // reply-log tail to the backup. Killing the primary mid-stream must leave
  // the promoted backup able to serve the last acknowledged request from its
  // imported log — exactly once, never by re-execution.
  deploy(FtmConfig::pbr());
  for (int i = 0; i < 5; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(rt0.kernel().counters().deltas_sent, 5u);
  EXPECT_EQ(rt1.kernel().counters().checkpoints_applied, 5u);

  inject.crash_at(h0.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  ASSERT_EQ(rt1.kernel().role(), Role::kAlone);

  // Retransmit the last acknowledged request id straight to the survivor.
  hc.send(h1.id(), msg::kRequest,
          client_request(hc.id(), 5, kv_incr("ctr")));
  sim.run_for(sim::kSecond);
  EXPECT_GE(rt1.kernel().counters().duplicates_served, 1u);

  const Value got = roundtrip(kv_get("ctr"), 5 * sim::kSecond);
  EXPECT_EQ(got.at("result").at("value").as_int(), 5) << "no double increment";
  EXPECT_EQ(rt1.kernel().counters().resyncs, 0u) << "stream had no gap";
}

TEST_F(Fixture, BackupMissingDeltasResyncsViaJoinPath) {
  deploy(FtmConfig::pbr());
  for (int i = 0; i < 3; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(rt1.kernel().counters().checkpoints_applied, 3u);

  // Silently restart the backup — fast enough that the failure detector
  // never suspects it. Its replica state and delta-stream position are gone,
  // but the primary keeps streaming deltas as if nothing happened.
  inject.crash_at(h1.id(), sim.now() + 2 * sim::kMillisecond);
  sim.run_for(10 * sim::kMillisecond);
  ASSERT_FALSE(h1.alive());
  h1.restart();
  DeployParams backup;
  backup.config = FtmConfig::pbr();
  backup.role = Role::kBackup;
  backup.peers = {h0.id().value()};
  backup.master = h0.id().value();
  backup.app = app::spec_for(app::kKvStore);
  rt1.deploy(backup);
  ASSERT_EQ(rt0.kernel().role(), Role::kPrimary);

  // The next delta arrives with a base the genesis replica never applied:
  // the backup must detect the gap, pull a full join snapshot, and only then
  // acknowledge — the client request rides out the resync.
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
  EXPECT_GE(rt1.kernel().counters().resyncs, 1u) << "gap went undetected";

  // The resynced backup is a fully valid failover target.
  inject.crash_at(h0.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  const Value after = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(after.has("error")) << after.to_string();
  EXPECT_EQ(after.at("result").at("value").as_int(), 5);
}

TEST_F(Fixture, FaultListenerFiresForMonitoring) {
  deploy(FtmConfig::pbr_tr());
  std::vector<std::string> events;
  rt0.kernel().set_fault_listener(
      [&](const std::string& kind) { events.push_back(kind); });
  h0.faults().transient_pending = 1;
  (void)roundtrip(kv_incr("ctr"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "tr_mismatch");
}

TEST(DeployFailure, FailedDeploymentScriptLeavesRuntimeUndeployed) {
  // Regression: deploy() built the composite before running the deployment
  // script, so a script failure (a brick type missing from the host library)
  // rolled the transaction back but left the empty composite behind —
  // deployed() reported true and the next kernel() probe (the node agent's
  // 500 ms stats timer) threw out of a timer action and aborted the process.
  register_components();
  app::register_components();
  sim::Simulation sim{7};
  sim::Host& h = sim.add_host("replica0");
  comp::HostLibrary bare;  // nothing installed: every deploy must roll back
  FtmRuntime rt{h, bare};
  DeployParams params;
  params.config = FtmConfig::tr();
  params.role = Role::kPrimary;
  params.master = static_cast<std::int64_t>(h.id().value());
  params.app = app::spec_for(app::kKvStore);
  EXPECT_THROW(rt.deploy(params), Error);
  EXPECT_FALSE(rt.deployed()) << "a rolled-back deploy must leave no FTM";

  // And the runtime stays usable: install the bricks and deploy for real.
  bare.install_all(comp::ComponentRegistry::instance());
  EXPECT_NO_THROW(rt.deploy(params));
  EXPECT_TRUE(rt.deployed());
}

}  // namespace
}  // namespace rcs::ftm::testing
