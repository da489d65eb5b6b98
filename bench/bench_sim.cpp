// bench_sim: throughput and allocation cost of the simulator's message
// plane (EventLoop + Network + Host dispatch) and of its scheduler across
// the pending-queue-depth profile (EventLoop slab + binary heap, Host
// timers).
//
// The paper's agile-adaptation claims rest on empirical measurement; the
// simulator must push millions of events cheaply or the measurement
// overhead itself distorts the capacity sweeps. This bench pins down the
// per-hop cost every protocol message pays, independent of FTM logic, and
// the per-event scheduler cost at each observed queue depth:
//
//   request_echo      two hosts ping-pong one request payload; measures the
//                     full send -> schedule -> deliver -> handler -> send
//                     loop.
//   fanout_x8         a relay re-sends one received payload to 8 receivers
//                     (the LFR/TR after-brick fan-out pattern); measures the
//                     per-copy cost of multi-replica traffic.
//   churn_steady_64   ~64 pending timers (chaos smoke peaks at 55): each
//                     fired timer re-arms itself one period out and does one
//                     schedule/cancel retry cycle — the failure-detector +
//                     client-timeout steady state.
//   churn_steady_4k   same pattern at ~4k pending (a few hundred hosts'
//                     worth of detectors and retry timers).
//   timer_churn_2m    2M schedule(+1000)/schedule(+10)/cancel cycles issued
//                     before any drain — each cycle leaves one net pending
//                     timer, so the queue peaks at 2M entries; then one
//                     drain. A queue thousands of times deeper than any
//                     benchmark workload's (those peak at a few hundred).
//
// Allocations are counted by the global operator-new hook of
// tests/alloc_counter.cpp; steady-state counts are taken after a warmup so
// one-time pool growth is excluded.
//
// Output: one JSON object per line on stdout. Counts (iterations, events,
// peak_pending, allocs/iter) are byte-deterministic across runs of the same
// binary — CI runs `--quick` twice, cmp-compares, and fails unless every row
// allocates nothing. Wall-clock rates are only emitted with --timing, which
// the cmp gate does not pass.
//
//   bench_sim [--quick] [--timing]
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/value.hpp"
#include "rcs/sim/simulation.hpp"

namespace {

using namespace rcs;       // NOLINT
using namespace rcs::sim;  // NOLINT

constexpr const char* kPing = "bench.ping";
constexpr const char* kPong = "bench.pong";
constexpr const char* kFanSeed = "bench.fan_seed";
constexpr const char* kFanCopy = "bench.fan_copy";

struct Measurement {
  std::uint64_t iterations{0};  // hops / copies / fired timers / cycles
  std::uint64_t events{0};      // EventLoop events processed
  std::uint64_t peak_pending{0};
  std::uint64_t allocs{0};      // operator-new calls in the measured window
  std::uint64_t alloc_bytes{0};
  double wall_seconds{0.0};
};

/// The measured window: snapshots the allocation and event counters and
/// the wall clock at construction; finish() turns them into deltas.
class Window {
 public:
  explicit Window(Simulation& sim)
      : sim_(sim),
        allocs_(test::allocations()),
        alloc_bytes_(test::allocated_bytes()),
        events_(sim.loop().processed()),
        wall_(std::chrono::steady_clock::now()) {}

  Measurement finish(std::uint64_t iterations) const {
    Measurement m;
    m.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_)
                         .count();
    m.allocs = test::allocations() - allocs_;
    m.alloc_bytes = test::allocated_bytes() - alloc_bytes_;
    m.events = sim_.loop().processed() - events_;
    m.iterations = iterations;
    m.peak_pending = sim_.loop().peak_pending();
    return m;
  }

 private:
  Simulation& sim_;
  std::uint64_t allocs_;
  std::uint64_t alloc_bytes_;
  std::uint64_t events_;
  std::chrono::steady_clock::time_point wall_;
};

/// A representative request payload: the shape a KV/counter request has on
/// the wire (small map with a string op, an int argument and a binary blob).
Value make_request_payload() {
  Bytes blob;
  for (int i = 0; i < 64; ++i) blob.push_back(static_cast<std::uint8_t>(i));
  return Value::map()
      .set("op", "incr")
      .set("arg", std::int64_t{7})
      .set("blob", Value(blob));
}

void emit(const char* name, const Measurement& m, bool timing) {
  const double per_iter_allocs =
      m.iterations == 0
          ? 0.0
          : static_cast<double>(m.allocs) / static_cast<double>(m.iterations);
  const double per_iter_bytes =
      m.iterations == 0 ? 0.0
                        : static_cast<double>(m.alloc_bytes) /
                              static_cast<double>(m.iterations);
  // Deterministic fields only: the CI cmp gate compares two runs of this.
  std::printf("{\"bench\":\"%s\",\"iterations\":%" PRIu64
              ",\"events\":%" PRIu64 ",\"peak_pending\":%" PRIu64
              ",\"allocs_per_iter\":%.3f,\"alloc_bytes_per_iter\":%.1f}\n",
              name, m.iterations, m.events, m.peak_pending, per_iter_allocs,
              per_iter_bytes);
  if (timing && m.wall_seconds > 0.0) {
    const double events_per_sec =
        static_cast<double>(m.events) / m.wall_seconds;
    const double ns_per_event =
        m.wall_seconds * 1e9 / static_cast<double>(m.events);
    std::printf("{\"bench\":\"%s.timing\",\"events_per_sec\":%.0f"
                ",\"ns_per_event\":%.1f,\"wall_seconds\":%.3f}\n",
                name, events_per_sec, ns_per_event, m.wall_seconds);
  }
}

/// Two hosts ping-pong one payload `hops` times after a warmup. The handler
/// re-sends the payload it received, so the steady state exercises exactly
/// the per-hop message-plane path: send, transmit serialization, delivery
/// scheduling, dispatch.
Measurement run_request_echo(std::uint64_t warmup_hops, std::uint64_t hops) {
  Simulation sim(42);
  Host& a = sim.add_host("client");
  Host& b = sim.add_host("server");

  std::uint64_t remaining = warmup_hops;
  std::optional<Window> window;

  b.register_handler(kPing, [&](const Message& msg) {
    b.send(msg.from, kPong, msg.payload);
  });
  a.register_handler(kPong, [&](const Message& msg) {
    if (remaining-- > 1) {
      a.send(msg.to == a.id() ? b.id() : msg.from, kPing, msg.payload);
      return;
    }
    if (!window) {
      // Warmup done: start the measured window.
      remaining = hops;
      window.emplace(sim);
      a.send(b.id(), kPing, msg.payload);
    }
  });

  a.send(b.id(), kPing, make_request_payload());
  sim.run();
  return window->finish(hops);
}

/// One relay re-sends each received payload to `fan` receivers, `rounds`
/// times (after a warmup): the multi-replica fan-out pattern of the LFR/TR
/// after-bricks. iterations = delivered copies.
Measurement run_fanout(std::uint64_t warmup_rounds, std::uint64_t rounds,
                       std::size_t fan) {
  Simulation sim(43);
  Host& source = sim.add_host("source");
  Host& relay = sim.add_host("relay");
  std::vector<HostId> receivers;
  for (std::size_t i = 0; i < fan; ++i) {
    Host& r = sim.add_host(std::string("r") + std::to_string(i));
    r.register_handler(kFanCopy, [](const Message&) {});
    receivers.push_back(r.id());
  }

  std::uint64_t remaining = warmup_rounds;
  std::optional<Window> window;

  relay.register_handler(kFanSeed, [&](const Message& msg) {
    for (const HostId to : receivers) relay.send(to, kFanCopy, msg.payload);
    if (remaining-- > 1) {
      source.send(relay.id(), kFanSeed, msg.payload);
      return;
    }
    if (!window) {
      remaining = rounds;
      window.emplace(sim);
      source.send(relay.id(), kFanSeed, msg.payload);
    }
  });

  source.send(relay.id(), kFanSeed, make_request_payload());
  sim.run();
  return window->finish(rounds * fan);
}

/// One self-re-arming timer: fires once per `period`, and on every firing
/// performs one schedule/cancel retry cycle (the client-timeout pattern).
/// `depth` of these keep the pending queue at a steady ~depth entries.
struct ChurnTimer {
  Host* host;
  Duration period;
  std::uint64_t fired{0};

  void arm(Duration delay) {
    host->schedule_after(
        delay, [this] { fire(); }, "bench.churn");
  }
  void fire() {
    ++fired;
    const TimerId retry = host->schedule_after(
        4 * period, [this] { ++fired; }, "bench.retry");
    host->cancel(retry);
    arm(period);
  }
};

/// Steady-state churn at a fixed pending depth: `depth` timers each firing
/// once per `depth` ticks (so ~one event per tick), re-arming themselves and
/// doing one schedule/cancel per firing. iterations = fired timers.
Measurement run_churn_steady(std::uint64_t depth, std::uint64_t warmup_events,
                             std::uint64_t events) {
  Simulation sim(42);
  Host& h = sim.add_host("host");
  // Depth hint: `depth` armed timers plus one in-flight retry per firing.
  sim.loop().reserve(depth + 16);

  std::vector<ChurnTimer> timers(depth);
  for (std::uint64_t i = 0; i < depth; ++i) {
    timers[i].host = &h;
    timers[i].period = static_cast<Duration>(depth);
    // Stagger initial firings across one period.
    timers[i].arm(static_cast<Duration>(i + 1));
  }

  sim.run(warmup_events);
  const Window window(sim);
  sim.run(events);
  Measurement m = window.finish(0);
  m.iterations = m.events;
  return m;
}

/// The deep-drain cliff: schedule `cycles` schedule(+1000)/schedule(+10)/
/// cancel triples before draining anything — one net pending timer per
/// cycle, so the queue peaks at `cycles` entries — then drain. The cycle is
/// the client-timeout pattern on Host timers with a small capture: a
/// timeout that is cancelled (the reply arrived) plus one that fires.
/// iterations = cycles.
Measurement run_timer_drain(std::uint64_t warmup_cycles,
                            std::uint64_t cycles) {
  Simulation sim(44);
  Host& h = sim.add_host("host");
  // Depth hint: every cycle leaves one net pending timer (the cancelled
  // slot recycles within the cycle), so depth peaks near warmup + cycles.
  sim.loop().reserve(warmup_cycles + cycles + 16);

  std::uint64_t fired = 0;
  std::uint64_t payload_a = 1;  // captured state, mimics [this, id]
  std::uint64_t payload_b = 2;

  const auto cycle = [&] {
    const TimerId cancelled = h.schedule_after(
        1000, [&payload_a, &fired] { fired += payload_a; },
        "bench.cancelled");
    h.schedule_after(
        10, [&payload_b, &fired] { fired += payload_b; }, "bench.fire");
    h.cancel(cancelled);
  };

  for (std::uint64_t i = 0; i < warmup_cycles; ++i) cycle();
  sim.run();

  const Window window(sim);
  for (std::uint64_t i = 0; i < cycles; ++i) cycle();
  sim.run();
  const Measurement m = window.finish(cycles);
  if (fired == 0) std::fprintf(stderr, "timer-drain: nothing fired?\n");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool timing = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      timing = true;
    } else {
      std::fprintf(stderr, "usage: bench_sim [--quick] [--timing]\n");
      return 2;
    }
  }
  rcs::log().set_level(rcs::LogLevel::kWarn);

  const std::uint64_t scale = quick ? 1 : 20;
  emit("request_echo", run_request_echo(2'000, 50'000 * scale), timing);
  emit("fanout_x8", run_fanout(250, 6'250 * scale, 8), timing);
  emit("churn_steady_64", run_churn_steady(64, 5'000, 100'000 * scale),
       timing);
  emit("churn_steady_4k", run_churn_steady(4'096, 20'000, 100'000 * scale),
       timing);
  emit("timer_churn_2m", run_timer_drain(2'000, 100'000 * scale), timing);
  return 0;
}
