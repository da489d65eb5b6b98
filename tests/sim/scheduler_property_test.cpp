// Property test: the event loop is order-equivalent to a reference model.
//
// Drives randomized seeded interleavings of schedule / cancel / stale-cancel
// / step / run_until (including delays and horizons past 2^32 us, so
// timestamps that do not fit 32 bits are exercised) through the real
// EventLoop and, in lockstep, through a trivially-correct reference model: a
// set ordered by (deadline, seq). Events fired by the real loop append their
// token to a log; after every drain the log must equal the model's pop order
// exactly, and pending()/now() must agree after every operation.
//
// Fired events re-arm follow-ups pseudo-randomly (derived from the token
// value, so both sides make identical choices without communicating), which
// exercises scheduling from inside a running action, including events at
// the running instant, which must run within the current drain.
//
// TimerId validity rides along: cancelled and fired ids are retained and
// replayed as stale cancels, which must be no-ops even after the underlying
// slot has been recycled for a live timer (slot-generation reuse).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "rcs/sim/event_loop.hpp"

namespace rcs::sim {
namespace {

/// splitmix64: cheap deterministic hash, used both as the driver RNG and to
/// derive per-token follow-up decisions identically on both sides.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool wants_followup(std::uint64_t token) { return mix(token) % 4 == 0; }

Duration followup_delay(std::uint64_t token) {
  const std::uint64_t h = mix(token ^ 0xA5A5A5A5ull);
  switch (h % 4) {
    case 0:
      return 0;  // same instant: must run within the current drain
    case 1:
      return static_cast<Duration>(h / 7 % 97);
    case 2:
      return static_cast<Duration>(h / 11 % 100'000);
    default:
      return static_cast<Duration>(h / 13 % 40'000'000);
  }
}

/// Reference model entry order: (deadline, schedule seq) — the strict total
/// order the loop must reproduce.
using ModelKey = std::tuple<Time, std::uint64_t, std::uint64_t>;

struct Harness {
  EventLoop loop;
  std::vector<std::uint64_t> fired;  // real side: token log
  std::uint64_t next_token{0};       // real side allocations
  std::map<std::uint64_t, TimerId> live_ids;

  std::set<ModelKey> model;  // (at, seq, token)
  std::map<std::uint64_t, ModelKey> model_by_token;
  std::uint64_t model_next_token{0};
  std::uint64_t model_seq{0};
  Time model_now{0};

  std::vector<TimerId> dead_ids;  // fired or cancelled: stale-cancel probes

  /// Real side: schedule at now()+delay; the action logs its token and may
  /// deterministically re-arm a follow-up.
  void real_schedule(Duration delay) {
    const std::uint64_t token = next_token++;
    Harness* self = this;
    const TimerId id = loop.schedule_after(
        delay, [self, token] { self->on_fire(token); }, "prop");
    live_ids[token] = id;
  }

  void on_fire(std::uint64_t token) {
    fired.push_back(token);
    dead_ids.push_back(live_ids.at(token));
    live_ids.erase(token);
    if (wants_followup(token)) real_schedule(followup_delay(token));
  }

  /// Model side: mirror of real_schedule at model time `at`.
  void model_schedule(Time at) {
    const std::uint64_t token = model_next_token++;
    const ModelKey key{at, model_seq++, token};
    model.insert(key);
    model_by_token.emplace(token, key);
  }

  /// Model side: pop everything due by `t` in order, mirroring follow-up
  /// re-arms; returns the expected firing order.
  std::vector<std::uint64_t> model_run_until(Time t) {
    std::vector<std::uint64_t> order;
    while (!model.empty()) {
      const ModelKey key = *model.begin();
      if (std::get<0>(key) > t) break;
      model.erase(model.begin());
      const std::uint64_t token = std::get<2>(key);
      model_by_token.erase(token);
      model_now = std::get<0>(key);
      order.push_back(token);
      if (wants_followup(token)) {
        model_schedule(model_now + followup_delay(token));
      }
    }
    model_now = t;
    return order;
  }

  /// Model side: pop exactly one event (step semantics); empty => no-op.
  std::vector<std::uint64_t> model_step() {
    std::vector<std::uint64_t> order;
    if (model.empty()) return order;
    const ModelKey key = *model.begin();
    model.erase(model.begin());
    const std::uint64_t token = std::get<2>(key);
    model_by_token.erase(token);
    model_now = std::get<0>(key);
    order.push_back(token);
    if (wants_followup(token)) {
      model_schedule(model_now + followup_delay(token));
    }
    return order;
  }

  void check_drain(const std::vector<std::uint64_t>& expected) {
    ASSERT_EQ(fired, expected);
    fired.clear();
    ASSERT_EQ(loop.pending(), model.size());
    ASSERT_EQ(loop.now(), model_now);
    ASSERT_EQ(next_token, model_next_token);
  }
};

/// Delay distribution spanning same-instant events, near and far deadlines,
/// and deadlines past 2^32 us.
Duration pick_delay(std::uint64_t r) {
  const std::uint64_t v = mix(r);
  switch (r % 8) {
    case 0:
      return 0;
    case 1:
    case 2:
      return static_cast<Duration>(v % 2'048);
    case 3:
    case 4:
      return static_cast<Duration>(v % 1'000'000);
    case 5:
      return static_cast<Duration>(v % (1ull << 28));
    case 6:
      return static_cast<Duration>(v % (1ull << 31));
    default:  // past 2^32 us
      return static_cast<Duration>((1ull << 32) + v % (1ull << 33));
  }
}

void run_property(std::uint64_t seed, int ops) {
  Harness h;
  std::uint64_t state = seed;
  const auto rng = [&state] { return state = mix(state); };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = rng();
    switch (r % 16) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6: {  // schedule
        const Duration delay = pick_delay(rng());
        h.real_schedule(delay);
        h.model_schedule(h.model_now + delay);
        break;
      }
      case 7:
      case 8: {  // cancel a random live timer
        if (h.live_ids.empty()) break;
        auto it = h.live_ids.begin();
        std::advance(it, static_cast<long>(rng() % h.live_ids.size()));
        const std::uint64_t token = it->first;
        h.loop.cancel(it->second);
        h.dead_ids.push_back(it->second);
        h.live_ids.erase(it);
        const ModelKey key = h.model_by_token.at(token);
        h.model.erase(key);
        h.model_by_token.erase(token);
        break;
      }
      case 9: {  // stale cancel: must be a no-op even after slot reuse
        if (h.dead_ids.empty()) break;
        h.loop.cancel(h.dead_ids[rng() % h.dead_ids.size()]);
        break;
      }
      case 10:
      case 11:
      case 12: {  // run_until a nearby horizon
        const Time t = h.model_now + static_cast<Duration>(rng() % 3'000'000);
        h.loop.run_until(t);
        const auto expected = h.model_run_until(t);
        h.check_drain(expected);
        if (::testing::Test::HasFatalFailure()) return;
        break;
      }
      case 13: {  // run_until a horizon more than 2^32 us ahead
        const Time t = h.model_now +
                       static_cast<Duration>((1ull << 32) + rng() % (1ull << 32));
        h.loop.run_until(t);
        const auto expected = h.model_run_until(t);
        h.check_drain(expected);
        if (::testing::Test::HasFatalFailure()) return;
        break;
      }
      default: {  // step
        const bool stepped = h.loop.step();
        const auto expected = h.model_step();
        ASSERT_EQ(stepped, !expected.empty());
        if (!expected.empty()) {
          // step() advances the clock only to the fired event's deadline.
          ASSERT_EQ(h.fired, expected);
          h.fired.clear();
          ASSERT_EQ(h.loop.now(), h.model_now);
        }
        ASSERT_EQ(h.loop.pending(), h.model.size());
        break;
      }
    }
    ASSERT_EQ(h.loop.pending(), h.model.size()) << "op " << op;
  }

  // Final full drain: everything still pending must come out in model order.
  h.loop.run();
  std::vector<std::uint64_t> expected;
  while (!h.model.empty()) {
    auto chunk = h.model_step();
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(h.fired, expected);
  ASSERT_EQ(h.loop.pending(), 0u);
  ASSERT_TRUE(h.loop.empty());
}

TEST(SchedulerProperty, LoopMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_property(seed * 0x9E3779B97F4A7C15ull + seed, 2'500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerProperty, CancelHeavyInterleavings) {
  // A second pass biased toward churn: short horizons, many cancels. The
  // different seed stream shifts the op mix; the invariants are identical.
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_property(mix(seed) | 1, 4'000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Partitioned-loops property: two event loops advanced in conservative
// lookahead windows, with cross-loop handoffs deferred to a mailbox and
// merged at each window barrier in (at, seq, source) order — the scheme of
// a conservative parallel DES, driven here through EventLoop's public API
// alone — must fire the same events at the same times, event for event, as
// one reference loop that schedules every handoff directly.
//
// Timestamp classes keep the comparison exact without an ordering oracle:
// loop-0 local chains live on times ≡ 0 (mod 4), loop-1 local chains on
// ≡ 2; the lookahead is ≡ 1 (mod 4) and handoff delays are lookahead + 4k,
// so arrivals land on ≡ 1 (loop 1) and ≡ 3 (loop 0) and handoff events are
// leaves. No timestamp is ever shared by the two loops, so merging the two
// per-loop logs by time is unambiguous, and same-loop ties always come from
// the same insertion channel in both runs (hence identical seq order).

struct TwoLoopHarness {
  static constexpr Duration kLookahead = 257;  // ≡ 1 (mod 4)

  // Token layout: bit 63 = handoff generation (a leaf), bit 62 = owner loop.
  static constexpr std::uint64_t kHandoffBit = 1ull << 63;
  static constexpr std::uint64_t kOwnerBit = 1ull << 62;
  static int owner(std::uint64_t token) {
    return (token & kOwnerBit) ? 1 : 0;
  }
  static bool is_leaf(std::uint64_t token) {
    return (token & kHandoffBit) != 0;
  }

  // Deterministic per-token decisions, identical on both sides. Local
  // fan-out is subcritical (p = 1/2, one child) so every run terminates.
  static bool wants_local(std::uint64_t t) { return mix(t ^ 0x11) % 2 == 0; }
  static Duration local_delay(std::uint64_t t) {
    return 4 * static_cast<Duration>(1 + mix(t ^ 0x22) % 64);
  }
  static bool wants_handoff(std::uint64_t t) { return mix(t ^ 0x33) % 2 == 0; }
  static Duration handoff_delay(std::uint64_t t) {
    return kLookahead + 4 * static_cast<Duration>(mix(t ^ 0x44) % 64);
  }
  static std::uint64_t child_token(std::uint64_t parent, int owner_loop,
                                   bool handoff) {
    std::uint64_t t = mix(parent ^ (handoff ? 0x55 : 0x66)) >> 2;
    if (owner_loop == 1) t |= kOwnerBit;
    if (handoff) t |= kHandoffBit;
    return t;
  }

  struct Fire {
    Time at;
    std::uint64_t token;
    bool operator==(const Fire& o) const {
      return at == o.at && token == o.token;
    }
  };
  struct Handoff {
    Time at;
    std::uint64_t seq;
    int src;
    std::uint64_t token;
  };

  EventLoop part[2];
  EventLoop ref;
  std::vector<Fire> part_log[2];
  std::vector<Fire> ref_log;
  std::vector<Handoff> mailbox;
  std::uint64_t seq[2] = {0, 0};

  void part_fire(std::uint64_t token) {
    const int o = owner(token);
    const Time at = part[o].now();
    part_log[o].push_back({at, token});
    if (is_leaf(token)) return;
    if (wants_local(token)) {
      const auto c = child_token(token, o, false);
      part[o].schedule_after(local_delay(token),
                             [this, c] { part_fire(c); }, "prop.local");
    }
    if (wants_handoff(token)) {
      const auto c = child_token(token, 1 - o, true);
      mailbox.push_back({at + handoff_delay(token), seq[o]++, o, c});
    }
  }

  void ref_fire(std::uint64_t token) {
    ref_log.push_back({ref.now(), token});
    if (is_leaf(token)) return;
    if (wants_local(token)) {
      const auto c = child_token(token, owner(token), false);
      ref.schedule_after(local_delay(token), [this, c] { ref_fire(c); },
                         "prop.local");
    }
    if (wants_handoff(token)) {
      const auto c = child_token(token, 1 - owner(token), true);
      ref.schedule_after(handoff_delay(token), [this, c] { ref_fire(c); },
                         "prop.handoff");
    }
  }

  void seed_workload(int per_loop) {
    for (int o = 0; o < 2; ++o) {
      for (int i = 0; i < per_loop; ++i) {
        std::uint64_t token =
            mix(0xBEEF + static_cast<std::uint64_t>(o * 1000 + i)) >> 2;
        if (o == 1) token |= kOwnerBit;
        // Class anchors: loop 0 seeds at ≡ 0 (mod 4), loop 1 at ≡ 2.
        const Time at = 4 * static_cast<Time>(i) + (o == 1 ? 2 : 0);
        part[o].schedule_at(at, [this, token] { part_fire(token); }, "prop");
        ref.schedule_at(at, [this, token] { ref_fire(token); }, "prop");
      }
    }
  }

  /// Drive both partition loops to quiescence with randomized window
  /// widths in [1, kLookahead], merging the mailbox at every barrier.
  void run_partitioned(std::uint64_t state) {
    Time w = 0;
    while (!part[0].empty() || !part[1].empty() || !mailbox.empty()) {
      state = mix(state);
      const auto width = 1 + static_cast<Duration>(state % kLookahead);
      const Time h = w + width;
      part[0].run_until(h);
      part[1].run_until(h);
      std::sort(mailbox.begin(), mailbox.end(),
                [](const Handoff& x, const Handoff& y) {
                  return std::tie(x.at, x.seq, x.src) <
                         std::tie(y.at, y.seq, y.src);
                });
      for (const Handoff& m : mailbox) {
        const int dst = owner(m.token);
        // The conservative safety bound the engine relies on: nothing can
        // arrive in a window that already ran.
        ASSERT_GE(m.at, part[dst].now());
        part[dst].schedule_at(m.at, [this, c = m.token] { part_fire(c); },
                              "prop.merge");
      }
      mailbox.clear();
      w = h;
    }
  }

  /// Drain the reference loop with randomized run_until horizons (different
  /// stream than the windows — horizons must not matter on either side).
  void run_reference(std::uint64_t state) {
    while (!ref.empty()) {
      state = mix(state);
      ref.run_until(ref.now() + 1 + static_cast<Duration>(state % 1000));
    }
  }
};

void run_two_loop_property(std::uint64_t seed, int per_loop) {
  TwoLoopHarness h;
  h.seed_workload(per_loop);
  h.run_partitioned(seed);
  if (::testing::Test::HasFatalFailure()) return;
  h.run_reference(mix(seed ^ 0xD15EA5E));

  // Merge the two per-loop logs by time: classes guarantee no cross-loop
  // tie, so the comparator never decides an ordering the engine wouldn't.
  std::vector<TwoLoopHarness::Fire> merged;
  merged.reserve(h.part_log[0].size() + h.part_log[1].size());
  std::merge(h.part_log[0].begin(), h.part_log[0].end(),
             h.part_log[1].begin(), h.part_log[1].end(),
             std::back_inserter(merged),
             [](const TwoLoopHarness::Fire& x, const TwoLoopHarness::Fire& y) {
               return x.at < y.at;
             });
  ASSERT_EQ(merged.size(), h.ref_log.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].at, h.ref_log[i].at) << "event " << i;
    ASSERT_EQ(merged[i].token, h.ref_log[i].token) << "event " << i;
  }
}

TEST(SchedulerProperty, PartitionedLoopsMatchSingleLoop) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_two_loop_property(mix(seed) | 1, 48);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerProperty, PartitionedLoopsWithSparseWorkload) {
  // Few seeds, long quiet stretches: many windows fire nothing, and the
  // mailbox is often the only thing keeping the run alive.
  for (std::uint64_t seed = 40; seed <= 43; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_two_loop_property(mix(seed) | 1, 3);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace rcs::sim
