// N-replica groups (§3.2.1: "We could also consider multiple Backups or
// Followers"): three-replica deployments, cascaded failover by rank,
// multi-backup checkpoint acknowledgements, group-wide transitions, and
// recovery back into a group.
#include <gtest/gtest.h>

#include "rcs/core/system.hpp"

namespace rcs::core {
namespace {

using ftm::FtmConfig;
using ftm::Role;

struct GroupFixture : ::testing::Test {
  static SystemOptions make_options() {
    SystemOptions options;
    options.replica_count = 3;
    options.start_monitoring = false;
    return options;
  }

  GroupFixture() : system(make_options()) {}

  static Value kv_incr() {
    return Value::map().set("op", "incr").set("key", "k").set("by", 1);
  }

  ResilientSystem system;
};

TEST_F(GroupFixture, ThreeReplicaPbrServesAndCheckpointsToAllBackups) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  for (int i = 1; i <= 3; ++i) {
    const Value reply = system.roundtrip(kv_incr(), 20 * sim::kSecond);
    ASSERT_FALSE(reply.has("error"));
    EXPECT_EQ(reply.at("result").at("value").as_int(), i);
  }
  // Every backup applied every checkpoint (the primary waits for BOTH acks).
  EXPECT_EQ(system.agent(0).runtime().kernel().counters().checkpoints_sent, 3u);
  EXPECT_EQ(system.agent(1).runtime().kernel().counters().checkpoints_applied, 3u);
  EXPECT_EQ(system.agent(2).runtime().kernel().counters().checkpoints_applied, 3u);
}

TEST_F(GroupFixture, TracedPbrRequestSurvivesALostCheckpointToOneBackup) {
  // The kernel's ctx view carries the "trace" key and is written in place
  // through slot pointers while the request waits for both acks and retries
  // the lost checkpoint once; the sanitizer build checks those writes.
  system.sim().tracer().set_enabled(true);
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  auto& primary = system.agent(0).runtime().kernel();
  const auto sent_before = primary.counters().checkpoints_sent.value();

  auto& link = system.sim().network().link(system.replica(0).id(),
                                           system.replica(2).id());
  link.drop_rate = 1.0;
  Value reply;
  system.client().send(kv_incr(), [&](const Value& r) { reply = r; });
  system.sim().run_for(50 * sim::kMillisecond);  // checkpoint sent and lost
  link.drop_rate = 0.0;
  system.sim().run_for(2 * sim::kSecond);

  ASSERT_TRUE(reply.is_map());
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
  EXPECT_EQ(primary.counters().checkpoints_sent.value() - sent_before, 2u)
      << "one retry after the lost checkpoint";
  EXPECT_EQ(system.agent(2).runtime().kernel().counters().checkpoints_applied.value(), 1u);
  EXPECT_EQ(primary.in_flight(), 0u);
  EXPECT_EQ(system.client().stats().retries, 0u);
  EXPECT_GT(system.sim().tracer().recorded(), 0u);
}

TEST_F(GroupFixture, CascadedFailoverByRank) {
  // The paper's duplex tolerates ONE crash; a 3-replica group tolerates two,
  // promoting deterministically by lowest live host id.
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  for (int i = 1; i <= 2; ++i) (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);

  system.replica(0).crash();
  Value reply = system.roundtrip(kv_incr(), 30 * sim::kSecond);  // k = 3
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 3);
  EXPECT_EQ(system.agent(1).runtime().kernel().role(), Role::kPrimary)
      << "replica1 is the lowest live id";
  EXPECT_EQ(system.agent(2).runtime().kernel().role(), Role::kBackup);

  system.replica(1).crash();
  reply = system.roundtrip(kv_incr(), 30 * sim::kSecond);  // k = 4
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4)
      << "state survived TWO crashes via cascaded checkpoints";
  EXPECT_EQ(system.agent(2).runtime().kernel().role(), Role::kAlone);
}

TEST_F(GroupFixture, ThreeReplicaLfrAllFollowersCompute) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::lfr()).ok);
  for (int i = 0; i < 4; ++i) (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);
  system.sim().run_for(sim::kSecond);
  EXPECT_EQ(system.agent(1).runtime().kernel().counters().forwarded, 4u);
  EXPECT_EQ(system.agent(2).runtime().kernel().counters().forwarded, 4u);
  // All three burned comparable CPU (active replication across the group).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(system.replica(i).meter().cpu_used(), 4 * 5 * sim::kMillisecond);
  }
}

TEST_F(GroupFixture, LfrFailoverKeepsComputedState) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::lfr()).ok);
  for (int i = 1; i <= 3; ++i) (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);
  system.replica(0).crash();
  const Value reply = system.roundtrip(kv_incr(), 30 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4)
      << "the promoted follower had computed every request";
}

TEST_F(GroupFixture, GroupWideDifferentialTransition) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);
  const auto report = system.transition_and_wait(FtmConfig::lfr_tr());
  ASSERT_TRUE(report.ok);
  ASSERT_EQ(report.replicas.size(), 3u);
  for (const auto& outcome : report.replicas) {
    EXPECT_TRUE(outcome.ok);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(system.agent(i).runtime().params().config.name, "LFR_TR");
  }
  const Value reply = system.roundtrip(kv_incr(), 20 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 2);
}

TEST_F(GroupFixture, AssertRecoveryPicksALiveBackup) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::a_pbr()).ok);
  system.replica(0).faults().permanent = true;
  for (int i = 1; i <= 3; ++i) {
    const Value reply = system.roundtrip(kv_incr(), 30 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_EQ(reply.at("result").at("value").as_int(), i)
        << "re-execution on a live backup masked the permanent fault";
  }
}

TEST_F(GroupFixture, CrashedMemberRecoversIntoTheGroup) {
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);

  system.replica(2).crash();
  system.sim().run_for(sim::kSecond);
  (void)system.roundtrip(kv_incr(), 20 * sim::kSecond);  // k = 2 while degraded

  system.replica(2).restart();
  system.sim().run_for(3 * sim::kSecond);
  ASSERT_TRUE(system.agent(2).runtime().deployed());
  EXPECT_EQ(system.agent(2).runtime().kernel().role(), Role::kBackup);

  // The rejoined member now protects against the next crashes.
  system.replica(0).crash();
  system.sim().run_for(sim::kSecond);
  system.replica(1).crash();
  const Value reply = system.roundtrip(kv_incr(), 60 * sim::kSecond);
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 3)
      << "the rejoined replica carried the full state";
}

TEST_F(GroupFixture, GroupSurvivesLossyLinks) {
  // 10% loss on every replica link: broadcast checkpoints retransmit, and
  // duplicate acks from re-broadcasts must be absorbed per peer (no
  // premature advance of the all-ack wait).
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      system.sim().network().link(system.replica(i).id(),
                                  system.replica(j).id()).drop_rate = 0.10;
    }
  }
  for (int i = 1; i <= 10; ++i) {
    const Value reply = system.roundtrip(kv_incr(), 60 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
    ASSERT_EQ(reply.at("result").at("value").as_int(), i) << "exactly once";
  }
}

TEST_F(GroupFixture, BackupDeathDuringCheckpointWaitDoesNotWedge) {
  // The primary is waiting for TWO acks; one backup dies before acking. The
  // kernel re-runs the phase against the surviving group and the request
  // completes with the remaining ack.
  ASSERT_TRUE(system.deploy_and_wait(FtmConfig::pbr()).ok);
  Value reply;
  system.client().send(kv_incr(), [&](const Value& r) { reply = r; });
  system.sim().run_for(7 * sim::kMillisecond);  // compute done, acks pending
  system.replica(2).crash();
  system.sim().run_for(5 * sim::kSecond);
  ASSERT_TRUE(reply.is_map()) << "request wedged on a dead backup's ack";
  EXPECT_FALSE(reply.has("error"));
  // The survivor pair keeps serving.
  const Value next = system.roundtrip(kv_incr(), 30 * sim::kSecond);
  ASSERT_FALSE(next.has("error"));
  EXPECT_EQ(next.at("result").at("value").as_int(), 2);
}

TEST_F(GroupFixture, FiveReplicaGroupStillWorks) {
  SystemOptions options = make_options();
  options.replica_count = 5;
  ResilientSystem large(options);
  ASSERT_TRUE(large.deploy_and_wait(FtmConfig::pbr()).ok);
  for (int i = 1; i <= 2; ++i) {
    const Value reply = large.roundtrip(kv_incr(), 30 * sim::kSecond);
    ASSERT_FALSE(reply.has("error"));
    EXPECT_EQ(reply.at("result").at("value").as_int(), i);
  }
  // Four backups, four checkpoint applications per request.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(large.agent(i).runtime().kernel().counters().checkpoints_applied,
              2u)
        << "backup " << i;
  }
  // Regression: staggered bootstraps must not self-elect a booting replica
  // (the failure detector's startup grace).
  EXPECT_EQ(large.agent(0).runtime().kernel().role(), Role::kPrimary);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(large.agent(i).runtime().kernel().role(), Role::kBackup)
        << "replica " << i << " split off during deployment";
  }
}

}  // namespace
}  // namespace rcs::core
