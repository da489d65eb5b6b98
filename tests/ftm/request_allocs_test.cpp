// Allocation gates of the request path: heap allocations per request on a
// two-replica deployment, counted after warm-up. A request crosses the whole
// FTM composite — kernel pipeline, typed brick / control / reply-log /
// application calls, the replica messages and their delivery — so a
// regression anywhere on that path (a Value map where a typed call was, a
// copy of a replica message) shows up here. Allocation counts are
// deterministic for a given build, so the gates are exact where a timing
// gate would be flaky.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "duplex_fixture.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

using RequestAllocs = DuplexFixture;

constexpr int kWarmup = 64;
constexpr int kMeasured = 256;

/// PBR with delta checkpoints: checkpoint to the backup and its ack.
/// Measured at 23.0 allocations per request once the bricks called the
/// application through its typed faces (32.0 with string-dispatched Value
/// ops into the app; 40.2 with Value map envelopes and snapshots; 48.2
/// before replies became shared cells, 74.2 before replica messages kept
/// their sender beside the payload, 141.7 before the calls inside the
/// composite were typed), plus 5%.
constexpr double kMaxPbrAllocsPerRequest = 24.2;

/// PBR with full checkpoints: the state and the whole reply log ship with
/// every request. Measured at 23.0 allocations per request with typed
/// application faces and a backup that replaces its KV map in place (35.0
/// with Value ops into the app and a map rebuilt on every checkpoint; 50.6
/// with Value map envelopes and snapshots; 182.6 when exports and imports
/// deep-copied every reply), plus 5%.
constexpr double kMaxPbrFullAllocsPerRequest = 24.2;

/// LFR: the leader forwards each request and notifies the follower, which
/// stashes the notification until its own pipeline reaches After. Measured
/// at 28.0 allocations per request with typed application faces (36.0 with
/// Value ops into the app; 39.8 with Value map envelopes; 42.8 when the
/// reply log deep-copied each reply; 66.8 with a Value ctx and a stamped
/// copy of every replica message), plus 5%.
constexpr double kMaxLfrAllocsPerRequest = 29.5;

TEST_F(RequestAllocs, PbrDeltaRequestStaysWithinAllocationBudget) {
  deploy(FtmConfig::pbr());
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) roundtrip(kv_incr(strf("k", i % 8)));
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt0.kernel().counters().deltas_sent, std::uint64_t{kWarmup + kMeasured});
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxPbrAllocsPerRequest);
}

TEST_F(RequestAllocs, PbrFullRequestStaysWithinAllocationBudget) {
  FtmConfig config = FtmConfig::pbr();
  config.delta_checkpoint = false;
  deploy(config);
  // Every checkpoint then ships the state and the whole reply log, full.
  static_assert(kWarmup > ReplyLogComponent::kCapacity);
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) roundtrip(kv_incr(strf("k", i % 8)));
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt0.kernel().counters().full_checkpoints_sent,
            std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(rt0.kernel().counters().deltas_sent, std::uint64_t{0});
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxPbrFullAllocsPerRequest);
}

TEST_F(RequestAllocs, LfrRequestStaysWithinAllocationBudget) {
  deploy(FtmConfig::lfr());
  // A slower follower on a fast replica link reaches After only after the
  // leader's notification and the client's reply arrived: the notification
  // is stashed first, and still held when the reply comes back.
  h1.capacity().cpu_speed = 0.75;
  sim.network().link(h0.id(), h1.id()).latency = 100;
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  int stashed = 0;
  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) {
    roundtrip(kv_incr(strf("k", i % 8)));
    if (rt1.kernel().stashed() > 0) ++stashed;
  }
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt1.kernel().counters().forwarded, std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(rt0.kernel().counters().notifications,
            std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(stashed, kMeasured) << "notifications did not take the stash path";
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxLfrAllocsPerRequest);
}

}  // namespace
}  // namespace rcs::ftm::testing
