#include "rcs/sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::sim {
namespace {

struct FaultFixture : ::testing::Test {
  Simulation sim{11};
  Host& h = sim.add_host("victim");
  FaultInjector inject{sim};
};

TEST_F(FaultFixture, CrashAtTime) {
  inject.crash_at(h.id(), 100);
  sim.run_until(99);
  EXPECT_TRUE(h.alive());
  sim.run_until(100);
  EXPECT_FALSE(h.alive());
}

TEST_F(FaultFixture, RestartAtTime) {
  inject.crash_at(h.id(), 100);
  inject.restart_at(h.id(), 200);
  sim.run_until(150);
  EXPECT_FALSE(h.alive());
  sim.run_until(200);
  EXPECT_TRUE(h.alive());
}

TEST_F(FaultFixture, RestartOfAliveHostIsNoop) {
  inject.restart_at(h.id(), 50);
  EXPECT_NO_THROW(sim.run());
  EXPECT_TRUE(h.alive());
}

TEST_F(FaultFixture, TransientArmsPendingCount) {
  inject.transient_at(h.id(), 10, 2);
  sim.run();
  EXPECT_EQ(h.faults().transient_pending, 2);
}

TEST_F(FaultFixture, PermanentTogglesFlag) {
  inject.permanent_at(h.id(), 10, true);
  inject.permanent_at(h.id(), 20, false);
  sim.run_until(15);
  EXPECT_TRUE(h.faults().permanent);
  sim.run_until(25);
  EXPECT_FALSE(h.faults().permanent);
}

TEST_F(FaultFixture, ApplyConsumesOneTransientPerComputation) {
  h.faults().transient_pending = 1;
  const Value good(std::int64_t{100});
  const Value first = FaultInjector::apply(h, good, sim.rng());
  EXPECT_NE(first, good) << "armed transient must corrupt";
  const Value second = FaultInjector::apply(h, good, sim.rng());
  EXPECT_EQ(second, good) << "transient fires only once";
  EXPECT_EQ(h.faults().corruptions_applied, 1u);
}

TEST_F(FaultFixture, ApplyPermanentCorruptsEveryTime) {
  h.faults().permanent = true;
  const Value good(std::int64_t{100});
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(FaultInjector::apply(h, good, sim.rng()), good);
  }
  EXPECT_EQ(h.faults().corruptions_applied, 5u);
}

TEST_F(FaultFixture, CorruptChangesEveryScalarType) {
  Rng rng(3);
  EXPECT_NE(FaultInjector::corrupt(Value(std::int64_t{7}), rng), Value(std::int64_t{7}));
  EXPECT_NE(FaultInjector::corrupt(Value(true), rng), Value(true));
  EXPECT_NE(FaultInjector::corrupt(Value(2.5), rng), Value(2.5));
  EXPECT_NE(FaultInjector::corrupt(Value("abc"), rng), Value("abc"));
  EXPECT_NE(FaultInjector::corrupt(Value(Bytes{1, 2}), rng), Value(Bytes{1, 2}));
  EXPECT_NE(FaultInjector::corrupt(Value{}, rng), Value{});
}

TEST_F(FaultFixture, CorruptingABlobLeavesItsHoldersUnchanged) {
  // Blobs are shared by every copy of a Value: corruption must build a new
  // buffer, never flip a bit in the one the other holders see.
  Rng rng(4);
  const Bytes original(256, 0x33);
  const Value blob(original);
  const Value holder = blob;
  const Value message = Value::map().set("blob", blob);
  const Value corrupted = FaultInjector::corrupt(blob, rng);
  EXPECT_NE(corrupted, blob);
  EXPECT_EQ(blob.as_bytes(), original);
  EXPECT_EQ(holder.as_bytes(), original);
  EXPECT_EQ(message.at("blob").as_bytes(), original);
  const Value corrupted_message = FaultInjector::corrupt(message, rng);
  EXPECT_NE(corrupted_message, message);
  EXPECT_EQ(message.at("blob").as_bytes(), original);
  EXPECT_EQ(blob.as_bytes(), original);
}

TEST_F(FaultFixture, CorruptContainersChangesOneElement) {
  Rng rng(5);
  Value list(ValueList{Value(1), Value(2), Value(3)});
  const Value corrupted = FaultInjector::corrupt(list, rng);
  ASSERT_TRUE(corrupted.is_list());
  ASSERT_EQ(corrupted.size(), 3u);
  int diffs = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (corrupted.at(i) != list.at(i)) ++diffs;
  }
  EXPECT_EQ(diffs, 1);

  Value map = Value::map();
  map.set("a", 1).set("b", 2);
  const Value corrupted_map = FaultInjector::corrupt(map, rng);
  EXPECT_NE(corrupted_map, map);
  EXPECT_EQ(corrupted_map.size(), 2u);
}

TEST_F(FaultFixture, CorruptEmptyContainersStillDiffers) {
  Rng rng(9);
  EXPECT_NE(FaultInjector::corrupt(Value::list(), rng), Value::list());
  EXPECT_NE(FaultInjector::corrupt(Value::map(), rng), Value::map());
  EXPECT_NE(FaultInjector::corrupt(Value(std::string{}), rng), Value(std::string{}));
  EXPECT_NE(FaultInjector::corrupt(Value(Bytes{}), rng), Value(Bytes{}));
}

TEST_F(FaultFixture, CampaignArrivalsFollowRate) {
  inject.transient_campaign(h.id(), 0, 100 * kSecond, 1.0);  // ~100 faults
  sim.run();
  const auto armed = h.faults().transient_pending;
  EXPECT_GT(armed, 60);
  EXPECT_LT(armed, 140);
}

TEST_F(FaultFixture, CampaignWithNonPositiveRateIsNoop) {
  // Regression: a zero/negative/NaN rate used to divide the exponential
  // sampler and either spin forever or dump the whole campaign on one
  // instant, depending on the draw. It must arm nothing.
  inject.transient_campaign(h.id(), 0, 10 * kSecond, 0.0);
  inject.transient_campaign(h.id(), 0, 10 * kSecond, -3.5);
  inject.transient_campaign(h.id(), 0, 10 * kSecond,
                            std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(sim.run(), 0u) << "no fault events may be scheduled";
  EXPECT_EQ(h.faults().transient_pending, 0);
}

TEST_F(FaultFixture, CampaignWithHugeRateTerminatesAndStaysBounded) {
  // Regression: an enormous rate produces ~zero gaps; every draw must still
  // advance time by at least one tick or scheduling never reaches `to`.
  const Time to = 200;  // 200 ticks
  inject.transient_campaign(h.id(), 0, to, 1e18);
  sim.run();
  EXPECT_GT(h.faults().transient_pending, 0);
  EXPECT_LE(h.faults().transient_pending, static_cast<int>(to))
      << "at most one arrival per tick";
}

TEST_F(FaultFixture, ApplyWithoutFaultsIsIdentity) {
  const Value v(ValueList{Value("ok"), Value(1)});
  EXPECT_EQ(FaultInjector::apply(h, v, sim.rng()), v);
  EXPECT_EQ(h.faults().corruptions_applied, 0u);
}

TEST_F(FaultFixture, PartitionWindowDropsAndHeals) {
  Host& peer = sim.add_host("peer");
  int delivered = 0;
  peer.register_handler("m", [&](const Message&) { ++delivered; });
  sim.network().default_link().drop_rate = 0.0;

  inject.partition_at(h.id(), peer.id(), 100 * kMillisecond,
                      300 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(i * 100 * kMillisecond + 50 * kMillisecond, [&] {
      sim.network().send({h.id(), peer.id(), "m", Payload{Value(1)}});
    });
  }
  sim.run();
  // Sends at 150ms and 250ms fall inside the window; the rest deliver.
  EXPECT_EQ(delivered, 3);
  EXPECT_FALSE(sim.network().link(h.id(), peer.id()).partitioned);
  EXPECT_EQ(sim.network().link_stats(h.id(), peer.id()).dropped, 2u);
}

TEST_F(FaultFixture, DegradeWindowRestoresPreviousParams) {
  Host& peer = sim.add_host("peer");
  auto& link = sim.network().link(h.id(), peer.id());
  link.latency = 3 * kMillisecond;
  link.drop_rate = 0.0;

  LinkParams burst;
  burst.latency = 50 * kMillisecond;
  burst.drop_rate = 1.0;
  burst.duplicate_rate = 0.5;
  inject.degrade_link_at(h.id(), peer.id(), 100 * kMillisecond,
                         200 * kMillisecond, burst);

  sim.run_until(150 * kMillisecond);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 1.0);
  sim.run_until(250 * kMillisecond);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 0.0);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).latency, 3 * kMillisecond);
}

TEST_F(FaultFixture, DegradeWindowPreservesOverlappingPartition) {
  Host& peer = sim.add_host("peer");
  inject.partition_at(h.id(), peer.id(), 0, 400 * kMillisecond);
  inject.degrade_link_at(h.id(), peer.id(), 100 * kMillisecond,
                         200 * kMillisecond, LinkParams{});
  sim.run_until(150 * kMillisecond);
  EXPECT_TRUE(sim.network().link(h.id(), peer.id()).partitioned)
      << "degrade must not heal a concurrent partition";
  sim.run_until(250 * kMillisecond);
  EXPECT_TRUE(sim.network().link(h.id(), peer.id()).partitioned);
  sim.run_until(450 * kMillisecond);
  EXPECT_FALSE(sim.network().link(h.id(), peer.id()).partitioned);
}

TEST_F(FaultFixture, OverlappingDegradeWindowsRestoreOriginal) {
  // Regression: with staggered windows A=[100,250) and B=[150,300), the old
  // restore logic let B capture A's degraded parameters as its "original"
  // and re-apply them forever once B closed. The injector now
  // reference-counts windows and restores the pristine parameters exactly
  // when the last one closes.
  Host& peer = sim.add_host("peer");
  auto& link = sim.network().link(h.id(), peer.id());
  link.latency = 3 * kMillisecond;
  link.drop_rate = 0.0;

  LinkParams burst_a;
  burst_a.latency = 50 * kMillisecond;
  burst_a.drop_rate = 0.8;
  LinkParams burst_b;
  burst_b.latency = 80 * kMillisecond;
  burst_b.drop_rate = 0.5;
  inject.degrade_link_at(h.id(), peer.id(), 100 * kMillisecond,
                         250 * kMillisecond, burst_a);
  inject.degrade_link_at(h.id(), peer.id(), 150 * kMillisecond,
                         300 * kMillisecond, burst_b);

  sim.run_until(200 * kMillisecond);  // both open: B applied last
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 0.5);
  sim.run_until(275 * kMillisecond);  // A closed, B still open
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 0.5)
      << "closing the first window must not heal the link under the second";
  sim.run_until(350 * kMillisecond);  // both closed
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 0.0)
      << "last window must restore the pristine parameters";
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).latency, 3 * kMillisecond);
}

TEST_F(FaultFixture, IdenticalOverlappingDegradeWindowsAreIdempotent) {
  // Two identical windows over the same span: exercised by chaos schedules
  // that draw the same episode twice. The link must end pristine.
  Host& peer = sim.add_host("peer");
  auto& link = sim.network().link(h.id(), peer.id());
  link.latency = 3 * kMillisecond;

  LinkParams burst;
  burst.latency = 40 * kMillisecond;
  burst.drop_rate = 1.0;
  inject.degrade_link_at(h.id(), peer.id(), 100 * kMillisecond,
                         200 * kMillisecond, burst);
  inject.degrade_link_at(h.id(), peer.id(), 100 * kMillisecond,
                         200 * kMillisecond, burst);
  sim.run_until(150 * kMillisecond);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 1.0);
  sim.run_until(250 * kMillisecond);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).drop_rate, 0.0);
  EXPECT_EQ(sim.network().link(h.id(), peer.id()).latency, 3 * kMillisecond);
}

TEST_F(FaultFixture, CorruptFuzzPreservesEncodability) {
  // Whatever corrupt() does to a Value, the result must stay a well-formed
  // Value: encodable, decodable, and round-trip stable — the checker and the
  // wire layer both rely on corrupted payloads still being valid payloads.
  Rng rng(0xC0FFEE);
  std::vector<Value> seeds;
  seeds.emplace_back();
  seeds.emplace_back(true);
  seeds.emplace_back(std::int64_t{42});
  seeds.emplace_back(3.25);
  seeds.emplace_back("the quick brown fox");
  seeds.emplace_back(Bytes{0x00, 0xFF, 0x7E});
  seeds.push_back(Value::list());
  seeds.push_back(Value::map());
  seeds.push_back(Value::map()
                      .set("op", "incr")
                      .set("key", "ctr")
                      .set("nested", Value(ValueList{Value(1), Value("x")})));
  for (const auto& seed : seeds) {
    Value v = seed;
    for (int round = 0; round < 200; ++round) {
      v = FaultInjector::corrupt(v, rng);
      const Bytes encoded = v.encode();
      const Value decoded = Value::decode(encoded);
      ASSERT_EQ(decoded, v) << "corrupted value must round-trip: "
                            << v.to_string();
      ASSERT_EQ(decoded.encode(), encoded);
    }
  }
}

}  // namespace
}  // namespace rcs::sim
