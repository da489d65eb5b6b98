// Arrival processes: deterministic, rate-faithful inter-arrival schedules.
#include <gtest/gtest.h>

#include "rcs/common/error.hpp"
#include "rcs/load/arrival.hpp"

namespace rcs::load::testing {
namespace {

/// Mean of `n` gaps in virtual seconds.
double mean_gap_s(ArrivalProcess& process, Rng& rng, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(process.next_gap(rng)) / sim::kSecond;
  }
  return total / n;
}

TEST(Arrival, OpenPoissonMatchesTheConfiguredRate) {
  OpenPoisson process(20.0);
  Rng rng(42);
  // Law of large numbers: the empirical mean gap approaches 1/rate = 50 ms.
  EXPECT_NEAR(mean_gap_s(process, rng, 4000), 0.05, 0.005);
}

TEST(Arrival, SameSeedSameSchedule) {
  const auto draw = [](std::uint64_t seed) {
    OpenPoisson process(50.0);
    Rng rng(seed);
    std::vector<sim::Duration> gaps;
    for (int i = 0; i < 100; ++i) gaps.push_back(process.next_gap(rng));
    return gaps;
  };
  EXPECT_EQ(draw(7), draw(7)) << "the offered schedule must be reproducible";
  EXPECT_NE(draw(7), draw(8));
}

TEST(Arrival, SetRateRetargetsOpenPoisson) {
  OpenPoisson process(10.0);
  Rng rng(1);
  process.set_rate(100.0);
  EXPECT_NEAR(mean_gap_s(process, rng, 4000), 0.01, 0.002);
}

TEST(Arrival, GapsNeverRoundToZero) {
  // An absurd rate must still advance virtual time: a zero gap would let a
  // client fire infinitely often at one instant.
  OpenPoisson process(1e9);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(process.next_gap(rng), 1);
}

TEST(Arrival, ClosedLoopDeclaresItself) {
  ClosedLoopThink closed(10.0);
  OpenPoisson open(10.0);
  EXPECT_TRUE(closed.closed_loop());
  EXPECT_FALSE(open.closed_loop());
  Rng rng(9);
  EXPECT_NEAR(mean_gap_s(closed, rng, 4000), 0.1, 0.01)
      << "think time is exponential with mean 1/rate";
}

TEST(Arrival, BurstyOnOffKeepsTheLongRunAverage) {
  // 4x bursts with matching silences: the long-run mean rate stays at the
  // configured 20/s even though the instantaneous rate alternates.
  BurstyOnOff process(20.0, 4.0, 2 * sim::kSecond);
  Rng rng(11);
  double virtual_s = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    virtual_s += static_cast<double>(process.next_gap(rng)) / sim::kSecond;
  }
  EXPECT_NEAR(n / virtual_s, 20.0, 3.0);
}

TEST(Arrival, NamedFactoriesAndUnknownKind) {
  Rng rng(5);
  EXPECT_FALSE(make_process("open", 10.0)(0)->closed_loop());
  EXPECT_TRUE(make_process("closed", 10.0)(0)->closed_loop());
  EXPECT_GE(make_process("bursty", 10.0)(0)->next_gap(rng), 1);
  EXPECT_THROW(make_process("fractal", 10.0), Error);
}

}  // namespace
}  // namespace rcs::load::testing
