// Allocation gate of the request path: heap allocations per PBR-delta request
// on a two-replica deployment, counted after warm-up. A request crosses the
// whole FTM composite — kernel pipeline, typed brick / control / reply-log
// calls, checkpoint to the backup and its ack — so a regression anywhere on
// that path (a Value map where a typed call was, a copy of the checkpoint)
// shows up here. Allocation counts are deterministic for a given build, so
// the gate is exact where a timing gate would be flaky.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "duplex_fixture.hpp"

namespace rcs::ftm::testing {
namespace {

using RequestAllocs = DuplexFixture;

/// Measured at 74.2 allocations per request once the calls inside the FTM
/// composite became typed (141.7 before), plus 5%.
constexpr double kMaxAllocsPerRequest = 78.0;

TEST_F(RequestAllocs, PbrDeltaRequestStaysWithinAllocationBudget) {
  deploy(FtmConfig::pbr());
  constexpr int kWarmup = 64;
  constexpr int kMeasured = 256;
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) roundtrip(kv_incr(strf("k", i % 8)));
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt0.kernel().counters().deltas_sent, std::uint64_t{kWarmup + kMeasured});
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxAllocsPerRequest);
}

}  // namespace
}  // namespace rcs::ftm::testing
