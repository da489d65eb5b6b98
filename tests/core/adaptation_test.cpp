// End-to-end adaptation: repository-served packages, distributed differential
// transitions with quiescence, crash-during-transition recovery (§5.3), and
// the monolithic baseline.
#include <gtest/gtest.h>

#include "rcs/core/system.hpp"

namespace rcs::core {
namespace {

using ftm::FtmConfig;

struct AdaptationFixture : ::testing::Test {
  static SystemOptions quiet_options() {
    SystemOptions options;
    options.start_monitoring = false;  // engine-focused tests drive manually
    return options;
  }

  AdaptationFixture() : system(quiet_options()) {}

  static Value kv_incr(const std::string& key) {
    return Value::map().set("op", "incr").set("key", key).set("by", 1);
  }
  static Value kv_get(const std::string& key) {
    return Value::map().set("op", "get").set("key", key);
  }

  ResilientSystem system;
};

TEST_F(AdaptationFixture, InitialDeploymentBringsServiceUp) {
  const auto report = system.deploy_and_wait(FtmConfig::pbr());
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.kind, "deploy");
  ASSERT_EQ(report.replicas.size(), 2u);
  for (const auto& replica : report.replicas) {
    EXPECT_TRUE(replica.ok);
    EXPECT_GT(replica.timings.deploy, 0);
    EXPECT_GT(replica.timings.script, 0);
  }
  // Deployment lands in the paper's ballpark (Table 3 first row ~3.8s).
  EXPECT_GT(report.mean_replica_total(), 3000 * sim::kMillisecond);
  EXPECT_LT(report.mean_replica_total(), 4800 * sim::kMillisecond);

  const Value reply = system.roundtrip(kv_incr("x"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
}

TEST_F(AdaptationFixture, DifferentialTransitionSwapsOnlyChangedBricks) {
  system.deploy_and_wait(FtmConfig::pbr());
  const auto report = system.transition_and_wait(FtmConfig::lfr());
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.components_shipped, 2);  // syncBefore + syncAfter
  EXPECT_EQ(system.engine().current().name, "LFR");
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(system.agent(i).runtime().params().config.name, "LFR");
    // The common parts survived the transition.
    auto& composite = system.agent(i).runtime().composite();
    EXPECT_EQ(composite.child("syncBefore").type_name(),
              ftm::brick::kSyncBeforeLfr);
    EXPECT_EQ(composite.child("proceed").type_name(),
              ftm::brick::kProceedCompute);
  }
  const Value reply = system.roundtrip(kv_incr("x"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
}

TEST_F(AdaptationFixture, TransitionIsMuchFasterThanDeployment) {
  const auto deploy_report = system.deploy_and_wait(FtmConfig::pbr());
  const auto transition_report = system.transition_and_wait(FtmConfig::lfr());
  ASSERT_TRUE(transition_report.ok);
  // The paper's headline ratio: differential transitions cost a fraction of
  // redeployment (Table 3: ~1s vs ~3.8s).
  EXPECT_LT(transition_report.mean_replica_total() * 2,
            deploy_report.mean_replica_total());
}

TEST_F(AdaptationFixture, TransitionTimeGrowsWithComponentsReplaced) {
  system.deploy_and_wait(FtmConfig::lfr());
  const auto one = system.transition_and_wait(FtmConfig::lfr_tr());  // 1 brick
  const auto back = system.transition_and_wait(FtmConfig::lfr());
  ASSERT_TRUE(back.ok);
  const auto two = system.transition_and_wait(FtmConfig::a_pbr());  // 2 bricks
  const auto back2 = system.transition_and_wait(FtmConfig::pbr());
  ASSERT_TRUE(back2.ok);
  const auto three = system.transition_and_wait(FtmConfig::lfr_tr());  // 3
  EXPECT_EQ(one.components_shipped, 1);
  EXPECT_EQ(two.components_shipped, 2);
  EXPECT_EQ(three.components_shipped, 3);
  EXPECT_LT(one.mean_replica_total(), two.mean_replica_total());
  EXPECT_LT(two.mean_replica_total(), three.mean_replica_total());
}

TEST_F(AdaptationFixture, StatePreservedAcrossTransition) {
  system.deploy_and_wait(FtmConfig::pbr());
  for (int i = 0; i < 3; ++i) (void)system.roundtrip(kv_incr("ctr"));
  const auto report = system.transition_and_wait(FtmConfig::lfr_tr());
  ASSERT_TRUE(report.ok);
  // Differential transitions never touch the server component: no state
  // transfer, no state loss (§6.1).
  const Value reply = system.roundtrip(kv_incr("ctr"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
}

TEST_F(AdaptationFixture, RequestsDuringTransitionAreBufferedNotLost) {
  system.deploy_and_wait(FtmConfig::pbr());
  int replies = 0;
  std::optional<TransitionReport> report;
  system.engine().transition(FtmConfig::lfr(),
                             [&](const TransitionReport& r) { report = r; });
  // Fire requests while the transition is in flight.
  for (int i = 0; i < 6; ++i) {
    system.client().send(kv_incr("n"), [&](const Value& r) {
      ASSERT_FALSE(r.has("error")) << r.to_string();
      ++replies;
    });
    system.sim().run_for(200 * sim::kMillisecond);
  }
  system.sim().run_for(20 * sim::kSecond);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->ok);
  EXPECT_EQ(replies, 6);
  const Value reply = system.roundtrip(kv_get("n"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 6) << "exactly once each";
}

TEST_F(AdaptationFixture, AllTable3PairsTransitionCleanly) {
  system.deploy_and_wait(FtmConfig::pbr());
  // Walk a path covering many pairs; service must survive every hop.
  const std::vector<const FtmConfig*> path = {
      &FtmConfig::lfr(),    &FtmConfig::lfr_tr(), &FtmConfig::a_lfr(),
      &FtmConfig::a_pbr(),  &FtmConfig::pbr_tr(), &FtmConfig::pbr(),
      &FtmConfig::a_lfr(),  &FtmConfig::lfr()};
  int expected = 0;
  (void)system.roundtrip(kv_incr("ctr"));
  ++expected;
  for (const auto* target : path) {
    const auto report = system.transition_and_wait(*target);
    ASSERT_TRUE(report.ok) << "transition to " << target->name;
    const Value reply = system.roundtrip(kv_incr("ctr"));
    ASSERT_FALSE(reply.has("error"));
    ++expected;
    EXPECT_EQ(reply.at("result").at("value").as_int(), expected)
        << "state continuity through " << target->name;
  }
}

TEST_F(AdaptationFixture, TransitionSucceedsWhileRequestsAreFailing) {
  // Regression: a master that FAILS requests (here: TR without majority
  // under a permanent fault) must abort the follower's forwarded contexts,
  // or the follower can never quiesce and silently misses the transition.
  system.deploy_and_wait(FtmConfig::lfr_tr());
  system.replica(0).faults().permanent = true;
  for (int i = 0; i < 3; ++i) {
    (void)system.roundtrip(kv_incr("k"), 20 * sim::kSecond);  // error replies
  }
  const auto report = system.transition_and_wait(FtmConfig::a_lfr());
  ASSERT_TRUE(report.ok) << "both replicas must complete the transition";
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(system.agent(i).runtime().composite().child("syncAfter").type_name(),
              ftm::brick::kSyncAfterLfrAssert);
  }
  // A&LFR now masks the permanent fault via re-execution on the follower.
  const Value reply = system.roundtrip(kv_incr("k"), 20 * sim::kSecond);
  EXPECT_FALSE(reply.has("error")) << reply.to_string();
}

TEST_F(AdaptationFixture, ScriptFailureKillsReplicaAndSurvivorServesAlone) {
  system.deploy_and_wait(FtmConfig::pbr());
  (void)system.roundtrip(kv_incr("ctr"));

  // §5.3: the backup's reconfiguration fails -> it kills itself; the
  // primary completes the transition and serves master-alone.
  system.engine().inject_script_failure_on(system.replica(1).id());
  const auto report = system.transition_and_wait(FtmConfig::lfr());
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.replicas.size(), 2u);
  EXPECT_TRUE(report.replicas[0].ok);
  EXPECT_FALSE(report.replicas[1].ok);
  EXPECT_FALSE(system.replica(1).alive()) << "fail-silent enforcement";

  system.sim().run_for(sim::kSecond);  // failure detector notices
  EXPECT_EQ(system.agent(0).runtime().kernel().role(), ftm::Role::kAlone);
  EXPECT_EQ(system.agent(0).runtime().params().config.name, "LFR");
  const Value reply = system.roundtrip(kv_incr("ctr"), 20 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 2);
}

TEST_F(AdaptationFixture, RestartedReplicaRecoversIntoSurvivorsConfiguration) {
  system.deploy_and_wait(FtmConfig::pbr());
  system.engine().inject_script_failure_on(system.replica(1).id());
  (void)system.transition_and_wait(FtmConfig::lfr());
  system.sim().run_for(sim::kSecond);
  ASSERT_FALSE(system.replica(1).alive());

  // §5.3: the restarted replica must come back in the configuration its
  // counterpart completed (LFR), not the one it crashed in (PBR).
  system.replica(1).restart();
  system.sim().run_for(2 * sim::kSecond);
  EXPECT_TRUE(system.agent(1).runtime().deployed());
  EXPECT_EQ(system.agent(1).runtime().params().config.name, "LFR");
  EXPECT_EQ(system.agent(1).runtime().kernel().role(), ftm::Role::kBackup);
  EXPECT_EQ(system.agent(0).runtime().kernel().role(), ftm::Role::kPrimary);
}

TEST_F(AdaptationFixture, BrickRefreshUpdatesInPlace) {
  // §3.2.1: "for RB, an update consists of changing the acceptance test" —
  // ship a new build of ONE brick of the running FTM without changing it.
  system.deploy_and_wait(FtmConfig::a_pbr());
  for (int i = 0; i < 2; ++i) (void)system.roundtrip(kv_incr("ctr"));

  const auto report = system.refresh_and_wait("syncAfter");
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.kind, "refresh");
  EXPECT_EQ(report.components_shipped, 1);
  EXPECT_EQ(system.engine().current().name, "A_PBR") << "FTM unchanged";

  // The refreshed brick works (assertion machinery intact) and state held.
  system.replica(0).faults().transient_pending = 1;
  const Value reply = system.roundtrip(kv_incr("ctr"), 20 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 3);
  EXPECT_GE(system.agent(0).runtime().kernel().counters().assertion_failures,
            1u);
}

TEST_F(AdaptationFixture, RefreshScriptGuardsSlotType) {
  // The refresh script carries require-guards: applying it to a slot whose
  // type changed in the meantime must roll back, not corrupt.
  system.deploy_and_wait(FtmConfig::pbr());
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const std::string source = builder.refresh_script(
      FtmConfig::lfr(), "syncAfter", system.app_spec());  // wrong FTM!
  EXPECT_THROW(system.agent(0).runtime().run_transition(source, FtmConfig::pbr()),
               ScriptException);
  EXPECT_EQ(system.agent(0).runtime().composite().child("syncAfter").type_name(),
            ftm::brick::kSyncAfterPbr)
      << "guarded script left the architecture untouched";
}

TEST_F(AdaptationFixture, MonolithicReplacementWorksButCostsMore) {
  system.deploy_and_wait(FtmConfig::pbr());
  for (int i = 0; i < 3; ++i) (void)system.roundtrip(kv_incr("ctr"));

  const auto report = system.monolithic_and_wait(FtmConfig::lfr());
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.kind, "monolithic");
  // State survived via explicit transfer.
  const Value reply = system.roundtrip(kv_incr("ctr"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
  // Monolithic replacement pays state transfer + full package.
  for (const auto& replica : report.replicas) {
    EXPECT_GT(replica.timings.state_transfer, 0);
  }
  EXPECT_GT(report.components_shipped, 3);
}

TEST_F(AdaptationFixture, MonolithicSlowerThanDifferential) {
  system.deploy_and_wait(FtmConfig::pbr());
  const auto differential = system.transition_and_wait(FtmConfig::lfr());
  const auto monolithic = system.monolithic_and_wait(FtmConfig::pbr());
  ASSERT_TRUE(differential.ok);
  ASSERT_TRUE(monolithic.ok);
  EXPECT_GT(monolithic.mean_replica_total(),
            differential.mean_replica_total());
}

TEST_F(AdaptationFixture, RepositoryCachesPackages) {
  system.deploy_and_wait(FtmConfig::pbr());
  const auto before = system.repository().cache_size();
  (void)system.transition_and_wait(FtmConfig::lfr());
  const auto after_first = system.repository().cache_size();
  EXPECT_EQ(after_first, before + 1);
  (void)system.transition_and_wait(FtmConfig::pbr());
  (void)system.transition_and_wait(FtmConfig::lfr());
  EXPECT_EQ(system.repository().cache_size(), after_first + 1)
      << "repeated LFR package came from the cache";
}

TEST_F(AdaptationFixture, PackageBytesScaleWithComponentsShipped) {
  system.deploy_and_wait(FtmConfig::lfr());
  const auto one = system.transition_and_wait(FtmConfig::lfr_tr());
  (void)system.transition_and_wait(FtmConfig::lfr());
  const auto deploy_again = system.monolithic_and_wait(FtmConfig::pbr());
  EXPECT_LT(one.package_bytes, deploy_again.package_bytes)
      << "differential packages carry only the new bricks";
}

TEST_F(AdaptationFixture, TryRoundtripDropsALateReply) {
  system.deploy_and_wait(FtmConfig::pbr());
  // A 1 us budget ends before any reply can cross the network.
  EXPECT_FALSE(system.try_roundtrip(kv_incr("x"), 1).has_value());
  // The incr's reply arrives during the next call and must not be taken
  // for the get's reply.
  const auto reply = system.try_roundtrip(kv_get("x"));
  ASSERT_TRUE(reply.has_value());
  const Value& result = reply->at("result");
  ASSERT_TRUE(result.has("found"));
  EXPECT_EQ(result.at("value").as_int(), 1);
}

}  // namespace
}  // namespace rcs::core
