// Allocation gate of the deploy path: heap bytes allocated by building a
// ResilientSystem and deploying PBR on it. A deploy fetches the full package
// from the repository, ships it to both replicas and installs it there, so a
// package copied where it should be shared (a decode to count entries, a
// re-encode per fetch, a blob copied with its Value) shows up here. The
// warm-up deploy builds the process-wide artifacts first, as the first
// campaign of a sweep does. Byte counts are deterministic for a given build.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "rcs/core/system.hpp"

namespace rcs::core {
namespace {

/// Measured at 683,480 bytes once each distinct script source was parsed
/// once per process, plus 5%. Before that: 953,324 (every run_source lexed
/// and parsed its script again), and 3,321,912 before artifacts were built
/// once per process and package bytes travelled by shared handle.
constexpr std::size_t kMaxDeployBytes = 717'654;

TEST(DeployAllocs, FreshSystemDeployStaysWithinByteBudget) {
  {
    ResilientSystem warm;
    ASSERT_TRUE(warm.deploy_and_wait(ftm::FtmConfig::pbr()).ok);
  }

  const std::size_t before = rcs::test::allocated_bytes();
  ResilientSystem system;
  const TransitionReport report = system.deploy_and_wait(ftm::FtmConfig::pbr());
  const std::size_t bytes = rcs::test::allocated_bytes() - before;

  ASSERT_TRUE(report.ok);
  RecordProperty("deploy_bytes", std::to_string(bytes));
  EXPECT_LE(bytes, kMaxDeployBytes);
}

}  // namespace
}  // namespace rcs::core
