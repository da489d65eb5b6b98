// Reproduces Figure 9: "Transition time distribution w.r.t. number of
// components replaced" — the share of (a) transition-package deployment,
// (b) reconfiguration-script execution, (c) residual-component removal in
// the total transition time, for the paper's three scenarios:
//   (a) LFR -> LFR⊕TR   (1 component)    paper: 59% / 19% / 22%
//   (b) PBR -> LFR      (2 components)   paper: 48% / 35% / 17%
//   (c) PBR -> LFR⊕TR   (3 components)   paper: 45% / 40% / 15%
//
// Claim under test: even for the most complex transition the script
// execution stays under half of the total; package deployment dominates.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

struct Breakdown {
  double deploy{0};
  double script{0};
  double removal{0};
  [[nodiscard]] double total() const { return deploy + script + removal; }
};

Breakdown measure(const ftm::FtmConfig& from, const ftm::FtmConfig& to,
                  int runs) {
  Breakdown sum;
  for (int run = 0; run < runs; ++run) {
    core::SystemOptions options;
    options.seed = 4000 + run;
    options.start_monitoring = false;
    core::ResilientSystem system(options);
    (void)system.deploy_and_wait(from);
    const auto report = system.transition_and_wait(to);
    for (const auto& replica : report.replicas) {
      sum.deploy += sim::to_ms(replica.timings.deploy);
      sum.script += sim::to_ms(replica.timings.script);
      sum.removal += sim::to_ms(replica.timings.removal);
    }
  }
  const double denom = runs * 2.0;  // two replicas per run
  return {sum.deploy / denom, sum.script / denom, sum.removal / denom};
}

}  // namespace

int main() {
  const int n = bench::runs();
  bench::title("Figure 9 — transition time distribution w.r.t. number of "
               "components replaced");
  std::printf("averaged over %d seeded runs; per-replica step times\n\n", n);

  struct Scenario {
    const char* label;
    const ftm::FtmConfig& from;
    const ftm::FtmConfig& to;
    const char* paper;
  };
  const Scenario scenarios[] = {
      {"LFR -> LFR+TR  (1 comp)", ftm::FtmConfig::lfr(), ftm::FtmConfig::lfr_tr(),
       "59%/19%/22%"},
      {"PBR -> LFR     (2 comp)", ftm::FtmConfig::pbr(), ftm::FtmConfig::lfr(),
       "48%/35%/17%"},
      {"PBR -> LFR+TR  (3 comp)", ftm::FtmConfig::pbr(), ftm::FtmConfig::lfr_tr(),
       "45%/40%/15%"},
  };

  std::printf("%-26s %9s %9s %9s %9s   %-14s %s\n", "transition", "deploy",
              "script", "removal", "total", "ours (d/s/r)", "paper (d/s/r)");
  bench::rule();
  bool script_under_half = true;
  double previous_script_share = 0;
  bool script_share_grows = true;
  for (const auto& scenario : scenarios) {
    const Breakdown b = measure(scenario.from, scenario.to, n);
    const double script_share = b.script / b.total();
    if (script_share >= 0.5) script_under_half = false;
    if (script_share < previous_script_share) script_share_grows = false;
    previous_script_share = script_share;
    std::printf("%-26s %7.0fms %7.0fms %7.0fms %7.0fms   %3.0f%%/%2.0f%%/%2.0f%%   %s\n",
                scenario.label, b.deploy, b.script, b.removal, b.total(),
                100 * b.deploy / b.total(), 100 * b.script / b.total(),
                100 * b.removal / b.total(), scenario.paper);
  }
  bench::rule();
  bench::shape_check(script_under_half,
                     "script execution < 50%% of total everywhere: %V\n");
  bench::shape_check(script_share_grows,
                     "script share grows with components replaced: %V\n");
  std::printf("(deployment dominates -> optimizing it shortens transitions, "
              "the paper's conclusion in §6.1)\n");
  return bench::shape_exit_code();
}
