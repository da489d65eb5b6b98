// End-to-end duplex protocol behaviour: normal operation, at-most-once,
// crash failover, state continuity, rejoin (§3.2.1 and §5.3).
#include <gtest/gtest.h>

#include "client_request.hpp"
#include "duplex_fixture.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

using Fixture = DuplexFixture;

TEST_F(Fixture, PbrServesRequests) {
  deploy(FtmConfig::pbr());
  const Value reply = roundtrip(kv_put("k", Value(42)));
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_TRUE(reply.at("result").at("ok").as_bool());

  const Value got = roundtrip(kv_get("k"));
  EXPECT_EQ(got.at("result").at("value").as_int(), 42);
}

TEST_F(Fixture, LfrServesRequests) {
  deploy(FtmConfig::lfr());
  const Value reply = roundtrip(kv_incr("n", 5));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 5);
}

TEST_F(Fixture, EveryStandardFtmServesTheKvWorkload) {
  // Parameterized manually over the full set (TR included: single host).
  for (const auto& config : FtmConfig::standard_set()) {
    SCOPED_TRACE(config.name);
    sim::Simulation local_sim{99};
    sim::Host& a = local_sim.add_host("a");
    sim::Host& b = local_sim.add_host("b");
    sim::Host& c = local_sim.add_host("c");
    comp::HostLibrary la, lb;
    la.install_all(comp::ComponentRegistry::instance());
    lb.install_all(comp::ComponentRegistry::instance());
    FtmRuntime ra{a, la}, rb{b, lb};
    DeployParams params;
    params.config = config;
    params.role = Role::kPrimary;
    if (config.duplex) params.peers = {b.id().value()};
    params.master = a.id().value();
    params.app = app::spec_for(app::kKvStore);
    ra.deploy(params);
    if (config.duplex) {
      params.role = Role::kBackup;
      params.peers = {a.id().value()};
      rb.deploy(params);
    }
    Client cl{c, {a.id(), b.id()}};
    Value reply;
    cl.send(kv_incr("x"), [&](const Value& r) { reply = r; });
    local_sim.run_for(3 * sim::kSecond);
    ASSERT_TRUE(reply.is_map()) << "no reply under " << config.name;
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_EQ(reply.at("result").at("value").as_int(), 1);
  }
}

TEST_F(Fixture, RetransmissionIsServedFromReplyLog) {
  deploy(FtmConfig::pbr());
  (void)roundtrip(kv_incr("ctr"));
  // Manually retransmit the same request id straight to the primary.
  hc.send(h0.id(), msg::kRequest,
          client_request(hc.id(), 1, kv_incr("ctr")));
  sim.run_for(sim::kSecond);
  // The increment must NOT have been applied twice.
  const Value got = roundtrip(kv_get("ctr"));
  EXPECT_EQ(got.at("result").at("value").as_int(), 1);
  EXPECT_GE(rt0.kernel().counters().duplicates_served, 1u);
}

TEST_F(Fixture, PbrPrimaryCrashFailsOverWithState) {
  deploy(FtmConfig::pbr());
  for (int i = 0; i < 3; ++i) (void)roundtrip(kv_incr("ctr"));

  inject.crash_at(h0.id(), sim.now() + 10 * sim::kMillisecond);
  sim.run_for(50 * sim::kMillisecond);
  EXPECT_FALSE(h0.alive());

  // The client retries and lands on the promoted backup; the checkpointed
  // state makes the counter continue from 3.
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
  EXPECT_EQ(rt1.kernel().role(), Role::kAlone);
  EXPECT_EQ(rt1.kernel().counters().promotions, 1u);
}

TEST_F(Fixture, LfrLeaderCrashFailsOverWithState) {
  deploy(FtmConfig::lfr());
  for (int i = 0; i < 3; ++i) (void)roundtrip(kv_incr("ctr"));

  inject.crash_at(h0.id(), sim.now() + 10 * sim::kMillisecond);
  sim.run_for(50 * sim::kMillisecond);

  // The follower computed every request itself; its state is already current.
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
  EXPECT_EQ(rt1.kernel().role(), Role::kAlone);
}

TEST_F(Fixture, BackupCrashLeavesPrimaryServingAlone) {
  deploy(FtmConfig::pbr());
  (void)roundtrip(kv_incr("ctr"));
  inject.crash_at(h1.id(), sim.now() + 10 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);  // let the FD suspect
  EXPECT_EQ(rt0.kernel().role(), Role::kAlone);

  const Value reply = roundtrip(kv_incr("ctr"), 5 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 2);
}

TEST_F(Fixture, AtMostOnceHoldsAcrossFailover) {
  deploy(FtmConfig::pbr());
  (void)roundtrip(kv_incr("ctr"));

  // Crash the primary, then retransmit the SAME id; the backup must serve
  // the logged reply (the log travelled in the checkpoint), not re-execute.
  inject.crash_at(h0.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  ASSERT_EQ(rt1.kernel().role(), Role::kAlone);

  hc.send(h1.id(), msg::kRequest,
          client_request(hc.id(), 1, kv_incr("ctr")));
  sim.run_for(sim::kSecond);
  EXPECT_GE(rt1.kernel().counters().duplicates_served, 1u);

  const Value got = roundtrip(kv_get("ctr"), 5 * sim::kSecond);
  EXPECT_EQ(got.at("result").at("value").as_int(), 1) << "no double increment";
}

TEST_F(Fixture, RestartedBackupRejoinsAndProtectsAgainstNextCrash) {
  deploy(FtmConfig::pbr());
  for (int i = 0; i < 2; ++i) (void)roundtrip(kv_incr("ctr"));

  // Backup dies; primary goes alone and keeps serving.
  inject.crash_at(h1.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  ASSERT_EQ(rt0.kernel().role(), Role::kAlone);
  (void)roundtrip(kv_incr("ctr"), 5 * sim::kSecond);  // ctr = 3

  // Backup restarts, redeploys from stable storage, rejoins.
  h1.restart();
  auto persisted = FtmRuntime::load_persisted(h1);
  ASSERT_TRUE(persisted.has_value());
  persisted->role = Role::kBackup;
  rt1.deploy(*persisted);
  rt1.request_rejoin();
  sim.run_for(500 * sim::kMillisecond);
  EXPECT_EQ(rt0.kernel().role(), Role::kPrimary);
  EXPECT_EQ(rt1.kernel().role(), Role::kBackup);

  // Now the PRIMARY dies; the rejoined backup must carry the full state.
  inject.crash_at(h0.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  const Value reply = roundtrip(kv_incr("ctr"), 10 * sim::kSecond);
  ASSERT_FALSE(reply.has("error"));
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4);
}

TEST_F(Fixture, PbrFullCheckpointsMoveBulkTraffic) {
  // Non-incremental mode: every request ships the whole application state.
  FtmConfig full = FtmConfig::pbr();
  full.delta_checkpoint = false;
  deploy(full);
  for (int i = 0; i < 5; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(rt0.kernel().counters().checkpoints_sent, 5u);
  EXPECT_EQ(rt0.kernel().counters().full_checkpoints_sent, 5u);
  EXPECT_EQ(rt1.kernel().counters().checkpoints_applied, 5u);
  // Checkpoints (state_size ~4KB each) dominate LFR-style notification bytes.
  EXPECT_GT(sim.network().traffic(h0.id()).bytes_sent, 5u * 4000u);
}

TEST_F(Fixture, DeltaCheckpointsSlashCheckpointTraffic) {
  // Default mode: only the dirty key set travels, so the same workload that
  // moves >20 KB of full checkpoints stays below one full state in total.
  deploy(FtmConfig::pbr());
  for (int i = 0; i < 5; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(rt0.kernel().counters().checkpoints_sent, 5u);
  EXPECT_EQ(rt0.kernel().counters().deltas_sent, 5u);
  EXPECT_EQ(rt1.kernel().counters().checkpoints_applied, 5u);
  EXPECT_EQ(rt1.kernel().counters().resyncs, 0u);
  EXPECT_LT(sim.network().traffic(h0.id()).bytes_sent, 4000u);
}

TEST_F(Fixture, LfrKeepsBandwidthLowButBothReplicasCompute) {
  deploy(FtmConfig::lfr());
  for (int i = 0; i < 5; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(rt0.kernel().counters().notifications, 5u);
  EXPECT_EQ(rt1.kernel().counters().forwarded, 5u);
  // Both replicas burned CPU (active replication).
  EXPECT_GT(h0.meter().cpu_used(), 0);
  EXPECT_GT(h1.meter().cpu_used(), 0);
  EXPECT_NEAR(static_cast<double>(h0.meter().cpu_used()),
              static_cast<double>(h1.meter().cpu_used()),
              static_cast<double>(h0.meter().cpu_used()) * 0.2);
}

// --- The backup's reply log is the primary's, through every import path ----

/// The reply log of `rt`, as the kernel and the bricks call it.
ReplyLog& reply_log_of(FtmRuntime& rt) {
  return dynamic_cast<ReplyLog&>(rt.composite().child("replyLog"));
}

/// The keys and the counter values of a log's records, oldest first.
using Records = std::vector<std::pair<RequestKey, std::int64_t>>;

Records records_of(FtmRuntime& rt) {
  Records out;
  for (const auto& record : reply_log_of(rt).export_all().records) {
    out.emplace_back(record.key,
                     record.reply.at("result").at("value").as_int());
  }
  return out;
}

/// The records of `count` increments of "ctr" numbered from `first`, the
/// last kCapacity of them.
Records increments(std::int64_t client, int first, int count) {
  Records out;
  const int last = first + count - 1;
  const int start =
      std::max(first, last - static_cast<int>(ReplyLogComponent::kCapacity) + 1);
  for (int i = start; i <= last; ++i) {
    out.emplace_back(RequestKey{client, static_cast<std::uint64_t>(i)}, i);
  }
  return out;
}

class ReplyLogImports : public DuplexFixture,
                        public ::testing::WithParamInterface<bool> {};

TEST_P(ReplyLogImports, FullDeltaCrashAndRejoinKeepTheLogsEqual) {
  FtmConfig config = FtmConfig::pbr();
  config.delta_checkpoint = GetParam();
  deploy(config);
  const auto client = hc.id().value();
  // Past capacity: the oldest records are evicted on both sides alike.
  constexpr int kFirst = 40;
  for (int i = 0; i < kFirst; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(records_of(rt0), increments(client, 1, kFirst));
  EXPECT_EQ(records_of(rt1), records_of(rt0)) << "checkpoint imports";

  // The backup crashes; the primary serves alone, and its log moves on.
  inject.crash_at(h1.id(), sim.now() + 5 * sim::kMillisecond);
  sim.run_for(400 * sim::kMillisecond);
  ASSERT_EQ(rt0.kernel().role(), Role::kAlone);
  for (int i = 0; i < 3; ++i) (void)roundtrip(kv_incr("ctr"));

  // It restarts and rejoins: the join snapshot imports the whole log.
  h1.restart();
  auto persisted = FtmRuntime::load_persisted(h1);
  ASSERT_TRUE(persisted.has_value());
  persisted->role = Role::kBackup;
  rt1.deploy(*persisted);
  rt1.request_rejoin();
  sim.run_for(500 * sim::kMillisecond);
  ASSERT_EQ(rt1.kernel().role(), Role::kBackup);
  EXPECT_EQ(records_of(rt1), increments(client, 1, kFirst + 3))
      << "join import";

  // Checkpoints after the rejoin keep both logs in step.
  for (int i = 0; i < 5; ++i) (void)roundtrip(kv_incr("ctr"));
  EXPECT_EQ(records_of(rt0), increments(client, 1, kFirst + 8));
  EXPECT_EQ(records_of(rt1), records_of(rt0));
}

INSTANTIATE_TEST_SUITE_P(DeltaAndFull, ReplyLogImports, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Delta" : "Full";
                         });

TEST_F(Fixture, StablStorageRecordsActiveConfiguration) {
  deploy(FtmConfig::lfr_tr());
  const auto persisted = FtmRuntime::load_persisted(h0);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->config, FtmConfig::lfr_tr());
  EXPECT_EQ(persisted->role, Role::kPrimary);
}

}  // namespace
}  // namespace rcs::ftm::testing
