// Ablation: failure-detector timeout (a design parameter DESIGN.md calls
// out). The duplex protocols' recovery latency is bounded by the detection
// period (§3.2.1's "crash of the master is detected by a dedicated entity").
// Sweep the suspicion timeout and measure
//   - failover latency: primary crash -> first successful reply from the
//     promoted backup, and
//   - false suspicions: promotions that happen with BOTH replicas alive,
//     on a lossy link (2% heartbeat loss).
// The tradeoff curve is the classic failure-detector one: short timeouts
// recover fast but mis-suspect on a lossy network; long timeouts are safe
// but slow.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

Value kv_incr() {
  return Value::map().set("op", "incr").set("key", "k").set("by", 1);
}

struct Point {
  double failover_ms{0};
  double false_suspicions{0};
};

Point measure(sim::Duration timeout, int runs) {
  Point point;
  for (int run = 0; run < runs; ++run) {
    core::SystemOptions options;
    options.seed = 5000 + run;
    options.start_monitoring = false;
    options.fd_interval = std::max<sim::Duration>(timeout / 4,
                                                  10 * sim::kMillisecond);
    options.fd_timeout = timeout;
    core::ResilientSystem system(options);
    (void)system.deploy_and_wait(ftm::FtmConfig::pbr());

    // Phase A: lossy link, both alive — count false suspicions.
    system.sim().network().link(system.replica(0).id(), system.replica(1).id())
        .drop_rate = 0.02;
    system.sim().run_for(20 * sim::kSecond);
    point.false_suspicions +=
        static_cast<double>(
            system.agent(0).runtime().kernel().counters().promotions +
            system.agent(1).runtime().kernel().counters().promotions) /
        runs;
    system.sim().network().link(system.replica(0).id(), system.replica(1).id())
        .drop_rate = 0.0;

    // Phase B: crash the primary; measure time to the next good reply.
    // (Skip if a false suspicion already promoted somebody.)
    if (system.agent(1).runtime().kernel().role() != ftm::Role::kBackup) {
      point.failover_ms += 0;
      continue;
    }
    const sim::Time crash_at = system.sim().now();
    system.replica(0).crash();
    const Value reply = system.roundtrip(kv_incr(), 60 * sim::kSecond);
    const double latency =
        reply.has("error") ? 60'000.0
                           : sim::to_ms(system.sim().now() - crash_at);
    point.failover_ms += latency / runs;
  }
  return point;
}

}  // namespace

int main() {
  const int n = std::max(1, bench::runs() / 10);
  bench::title("Ablation — failure-detector suspicion timeout");
  std::printf("%d runs per point; PBR, client timeout 400 ms, 2%% heartbeat "
              "loss during the\nfalse-suspicion phase\n\n",
              n);
  std::printf("%-12s %16s %20s\n", "timeout", "failover latency",
              "false suspicions/20s");
  bench::rule();

  const sim::Duration timeouts[] = {
      50 * sim::kMillisecond,  100 * sim::kMillisecond, 200 * sim::kMillisecond,
      400 * sim::kMillisecond, 800 * sim::kMillisecond, 1600 * sim::kMillisecond};
  std::vector<Point> points;
  for (const auto timeout : timeouts) {
    const Point p = measure(timeout, n);
    points.push_back(p);
    std::printf("%9.0fms %14.0fms %20.2f\n", sim::to_ms(timeout), p.failover_ms,
                p.false_suspicions);
  }

  bench::rule();
  bench::shape_check(points.front().failover_ms < points.back().failover_ms,
                     "failover latency grows with the timeout: %V\n");
  bench::shape_check(
      points.front().false_suspicions >= points.back().false_suspicions,
      "false suspicions shrink with the timeout: %V (%.2f -> %.2f)\n",
      points.front().false_suspicions, points.back().false_suspicions);
  std::printf("(the default 200 ms sits on the knee of the curve)\n");
  return bench::shape_exit_code();
}
