// Reproduces the §6.2 agility discussion: differential (agile) transitions
// vs monolithic FTM replacement vs deployment from scratch, plus the
// service-disruption cost of each strategy, with the related-work numbers
// the paper cites for context.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

struct Outcome {
  double transition_ms{0};
  double package_kb{0};
  int components{0};
  double worst_latency_ms{0};  // client-visible disruption
  int replies{0};
};

Value kv_incr() {
  return Value::map().set("op", "incr").set("key", "k").set("by", 1);
}

/// Run `kind` ("diff" | "mono") PBR->LFR under a steady client workload and
/// measure both the reconfiguration time and the client-visible disruption.
Outcome measure(const std::string& kind, std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(ftm::FtmConfig::pbr());

  Outcome outcome;
  std::optional<core::TransitionReport> report;
  if (kind == "diff") {
    system.engine().transition(ftm::FtmConfig::lfr(),
                               [&](const core::TransitionReport& r) { report = r; });
  } else {
    system.engine().transition_monolithic(
        ftm::FtmConfig::lfr(),
        [&](const core::TransitionReport& r) { report = r; });
  }
  // Steady workload of one request per 100 ms throughout the transition.
  for (int i = 0; i < 40; ++i) {
    const sim::Time sent = system.sim().now();
    system.client().send(kv_incr(), [&, sent](const Value& reply) {
      if (reply.has("error")) return;
      ++outcome.replies;
      const double latency = sim::to_ms(system.sim().now() - sent);
      outcome.worst_latency_ms = std::max(outcome.worst_latency_ms, latency);
    });
    system.sim().run_for(100 * sim::kMillisecond);
  }
  system.sim().run_for(30 * sim::kSecond);

  outcome.transition_ms = sim::to_ms(report->mean_replica_total());
  outcome.package_kb = static_cast<double>(report->package_bytes) / 1024.0;
  outcome.components = report->components_shipped;
  return outcome;
}

}  // namespace

int main() {
  const int n = std::max(1, bench::runs() / 10);
  bench::title("Agile differential transition vs monolithic replacement "
               "(PBR -> LFR under load)");
  std::printf("averaged over %d runs; 40 requests at 10/s during the "
              "transition\n\n",
              n);

  Outcome diff{}, mono{};
  for (int run = 0; run < n; ++run) {
    const Outcome d = measure("diff", 7000 + run);
    const Outcome m = measure("mono", 8000 + run);
    diff.transition_ms += d.transition_ms / n;
    diff.package_kb += d.package_kb / n;
    diff.worst_latency_ms += d.worst_latency_ms / n;
    diff.replies += d.replies / n;
    diff.components = d.components;
    mono.transition_ms += m.transition_ms / n;
    mono.package_kb += m.package_kb / n;
    mono.worst_latency_ms += m.worst_latency_ms / n;
    mono.replies += m.replies / n;
    mono.components = m.components;
  }

  std::printf("%-24s %12s %12s %11s %13s %9s\n", "strategy", "transition",
              "package", "components", "worst latency", "replies");
  bench::rule();
  std::printf("%-24s %10.0fms %10.0fKB %11d %11.0fms %9d\n",
              "differential (agile)", diff.transition_ms, diff.package_kb,
              diff.components, diff.worst_latency_ms, diff.replies);
  std::printf("%-24s %10.0fms %10.0fKB %11d %11.0fms %9d\n",
              "monolithic replacement", mono.transition_ms, mono.package_kb,
              mono.components, mono.worst_latency_ms, mono.replies);

  bench::title("Context: numbers the paper cites (§6.2)");
  std::printf("  [10] preprogrammed active->passive switch          4.5 ms\n");
  std::printf("  [9]  preprogrammed passive<->active stabilization  360/390 ms\n");
  std::printf("  [8]  preprogrammed passive<->active alternation    260 ms\n");
  std::printf("  paper, agile differential PBR->LFR                 1003 ms\n");
  std::printf("  ours, agile differential PBR->LFR                  %.0f ms\n",
              diff.transition_ms);
  std::printf("\npreprogrammed switches are faster because every FTM is "
              "already deployed (dead code\nincluded); agility pays deployment "
              "time for the ability to integrate mechanisms that\ndid not "
              "exist at design time — and still beats replacing the whole "
              "FTM.\n");

  bench::rule();
  bench::shape_check(diff.transition_ms < mono.transition_ms,
                     "differential faster than monolithic: %V (%.1fx)\n",
                     mono.transition_ms / diff.transition_ms);
  bench::shape_check(diff.package_kb < mono.package_kb,
                     "differential ships less code: %V (%.1fx)\n",
                     mono.package_kb / diff.package_kb);
  bench::shape_check(diff.replies == 40 && mono.replies == 40,
                     "no request lost under either strategy: %V "
                     "(%d/%d vs %d/%d)\n",
                     diff.replies, 40, mono.replies, 40);
  return bench::shape_exit_code();
}
