#include "rcs/sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../alloc_counter.hpp"
#include "rcs/common/error.hpp"

namespace rcs::sim {
namespace {

TEST(EventLoop, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimestampRunsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time observed = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { observed = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(observed, 150);
}

TEST(EventLoop, SchedulingInThePastThrows) {
  EventLoop loop;
  loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(5, [] {}), SimError);
  EXPECT_THROW(loop.schedule_after(-1, [] {}), SimError);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelUnknownIdIsNoop) {
  EventLoop loop;
  EXPECT_NO_THROW(loop.cancel(TimerId{999}));
}

TEST(EventLoop, CancelFromWithinEarlierEvent) {
  EventLoop loop;
  bool ran = false;
  const auto victim = loop.schedule_at(20, [&] { ran = true; });
  loop.schedule_at(10, [&] { loop.cancel(victim); });
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, RunUntilAdvancesClockEvenWithoutEvents) {
  EventLoop loop;
  loop.run_until(500);
  EXPECT_EQ(loop.now(), 500);
}

TEST(EventLoop, RunUntilLeavesLaterEventsPending) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(10, [&] { ++ran; });
  loop.schedule_at(100, [&] { ++ran; });
  loop.run_until(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, RunUntilIncludesEventsAtTheHorizon) {
  // run_until(t) runs everything due at t, including an event scheduled at
  // t by another event at t; nothing is stranded for the next call.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(100, [&] {
    order.push_back(1);
    loop.schedule_at(100, [&] { order.push_back(2); });
  });
  loop.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 100);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, RunForIsRelative) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(80, [&] { ++ran; });
  loop.run_for(50);
  EXPECT_EQ(ran, 0);
  loop.run_for(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, EventsCanCascade) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) loop.schedule_after(1, recurse);
  };
  loop.schedule_after(1, recurse);
  loop.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, MaxEventsBoundsRun) {
  EventLoop loop;
  int ran = 0;
  for (int i = 0; i < 10; ++i) loop.schedule_at(i, [&] { ++ran; });
  EXPECT_EQ(loop.run(3), 3u);
  EXPECT_EQ(ran, 3);
}

TEST(EventLoop, ProcessedCounterAccumulates) {
  EventLoop loop;
  loop.schedule_at(1, [] {});
  loop.schedule_at(2, [] {});
  loop.run();
  EXPECT_EQ(loop.processed(), 2u);
}

TEST(EventLoop, EmptyActionRejected) {
  EventLoop loop;
  EXPECT_THROW(loop.schedule_at(1, EventLoop::Action{}), LogicError);
}

TEST(EventLoop, PendingExcludesCancelled) {
  EventLoop loop;
  const auto a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
}

TEST(EventLoop, PeakPendingTracksHighWaterMark) {
  EventLoop loop;
  EXPECT_EQ(loop.peak_pending(), 0u);
  for (int i = 0; i < 5; ++i) loop.schedule_at(i + 1, [] {});
  EXPECT_EQ(loop.peak_pending(), 5u);
  loop.run();
  // Draining does not lower the high-water mark.
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.peak_pending(), 5u);
}

// Cancel/reschedule churn forces slots through the free list over and over;
// every cancelled timer must stay dead and every live one must fire exactly
// once, whatever slot it was recycled into.
TEST(EventLoop, SlotReuseStressKeepsHandlesDistinct) {
  EventLoop loop;
  int fired = 0;
  int dead = 0;
  for (int round = 0; round < 1000; ++round) {
    const auto doomed =
        loop.schedule_after(100, [&dead] { ++dead; }, "doomed");
    const auto kept = loop.schedule_after(1, [&fired] { ++fired; }, "kept");
    loop.cancel(doomed);
    // The doomed slot is now on the free list; this schedule recycles it.
    loop.schedule_after(2, [&fired] { ++fired; }, "recycled");
    // Cancelling the stale id again must not kill the recycled occupant.
    loop.cancel(doomed);
    (void)kept;
    loop.run();
  }
  EXPECT_EQ(fired, 2000);
  EXPECT_EQ(dead, 0);
}

// A TimerId from a previous occupancy of the same slot (old generation) is
// stale: cancelling it must be a no-op for the current occupant.
TEST(EventLoop, StaleOldGenerationIdNeverCancelsNewOccupant) {
  EventLoop loop;
  bool first_ran = false;
  const auto first = loop.schedule_at(1, [&] { first_ran = true; });
  loop.run();
  EXPECT_TRUE(first_ran);

  // The slot was released by running; this reuses it with a new generation.
  bool second_ran = false;
  loop.schedule_at(2, [&] { second_ran = true; });
  loop.cancel(first);  // stale: same slot index, old generation
  loop.run();
  EXPECT_TRUE(second_ran);
}

// Regression: release must bump the generation. If it did not, a heap entry
// surviving a cancel would find the recycled slot "live" with a matching
// generation and fire the wrong action (or a cancelled one).
TEST(EventLoop, GenerationBumpsOnEveryRelease) {
  EventLoop loop;
  int wrong = 0;
  int right = 0;
  // Schedule and cancel: the heap entry for `cancelled` stays queued but its
  // slot is released and recycled by the next schedule at the same time.
  const auto cancelled = loop.schedule_at(5, [&wrong] { ++wrong; });
  loop.cancel(cancelled);
  loop.schedule_at(5, [&right] { ++right; });
  loop.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(right, 1);

  // And a full cycle on the recycled slot still works.
  bool again = false;
  loop.schedule_at(6, [&again] { again = true; });
  loop.run();
  EXPECT_TRUE(again);
}

// The client-timeout pattern: every request arms a long timeout and the
// reply's short timer, and the reply cancels the timeout. Cancel removes the
// entry at once, so the queue holds only live timers: after reserve(), a
// ramp of such cycles and its drain never touch the allocator.
TEST(EventLoop, ReservedCancelRampAllocatesNothing) {
  constexpr std::size_t kCycles = 4'096;
  EventLoop loop;
  // Each cycle leaves one net pending timer and holds one more until its
  // cancel, so the ramp peaks at kCycles + 1 entries.
  loop.reserve(kCycles + 1);
  std::size_t fired = 0;
  std::size_t timed_out = 0;

  const std::size_t allocs0 = test::allocations();
  for (std::size_t i = 0; i < kCycles; ++i) {
    const auto timeout = loop.schedule_after(1000, [&timed_out] { ++timed_out; });
    loop.schedule_after(10, [&fired] { ++fired; });
    const std::size_t before = loop.pending();
    loop.cancel(timeout);
    ASSERT_EQ(loop.pending(), before - 1) << "cycle " << i;
  }
  EXPECT_EQ(loop.peak_pending(), kCycles + 1);
  loop.run();
  EXPECT_EQ(test::allocations(), allocs0);

  EXPECT_EQ(fired, kCycles);
  EXPECT_EQ(timed_out, 0u);
  EXPECT_TRUE(loop.empty());
}

}  // namespace
}  // namespace rcs::sim
