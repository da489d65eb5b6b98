// The motivation experiment (§1-2): a system whose environment drifts
// (resource loss, then transient faults, then hardware aging) served by
//   (a) a STATIC deployment frozen on its design-time FTM (PBR), vs
//   (b) the ADAPTIVE system (monitoring + resilience manager + transitions).
// Metric: fraction of requests answered correctly (checksum-verified) in
// each era. A resilient system keeps that fraction high *because* it changes
// its FTM; the static one silently degrades when the fault model leaves its
// coverage.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/app/app_base.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

struct EraResult {
  int sent{0};
  int correct{0};
  [[nodiscard]] double availability() const {
    return sent == 0 ? 0.0 : 100.0 * correct / sent;
  }
};

struct Campaign {
  EraResult eras[3];
  std::string final_ftm;
};

Campaign run(bool adaptive, std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = adaptive;
  options.monitor_interval = 300 * sim::kMillisecond;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(ftm::FtmConfig::pbr());

  Campaign campaign;
  const auto drive = [&system](EraResult& era, int count) {
    for (int i = 0; i < count; ++i) {
      ++era.sent;
      system.client().send(
          Value::map().set("op", "incr").set("key", "k").set("by", 1),
          [&era](const Value& reply) {
            if (!reply.has("error") &&
                app::AppServerBase::checksum_ok(reply.at("result"))) {
              ++era.correct;
            }
          });
      system.sim().run_for(500 * sim::kMillisecond);
    }
    system.sim().run_for(10 * sim::kSecond);
  };

  // Era 1: calm seas. Both systems should be perfect.
  drive(campaign.eras[0], 10);

  // Era 2: electromagnetic interference — transient value faults strike the
  // primary every ~2 s. The adaptive system's monitoring sees corrupted
  // results... only if something detects them. A static PBR delivers them.
  // The adaptive system is told by its operator (proactively, §5.4) that the
  // environment became noisy.
  if (adaptive) {
    system.manager().notify_fault_model_change(
        core::FaultModel{true, true, false}, "interference era begins");
    system.sim().run_for(20 * sim::kSecond);
  }
  system.faults().transient_campaign(system.replica(0).id(), system.sim().now(),
                                     system.sim().now() + 30 * sim::kSecond,
                                     0.5);
  drive(campaign.eras[1], 20);

  // Era 3: the primary's hardware starts failing permanently.
  system.replica(0).faults().permanent = true;
  if (adaptive) {
    // Give the evidence-driven escalation room to happen.
    drive(campaign.eras[2], 10);
    system.sim().run_for(20 * sim::kSecond);
    drive(campaign.eras[2], 10);
  } else {
    drive(campaign.eras[2], 20);
  }

  campaign.final_ftm = system.engine().current().name;
  return campaign;
}

}  // namespace

int main() {
  bench::title("Availability under environmental drift: static PBR vs "
               "adaptive fault tolerance");

  const Campaign adaptive = run(true, 11);
  const Campaign static_run = run(false, 11);

  std::printf("\n%-34s %12s %12s\n", "era", "static PBR", "adaptive");
  bench::rule();
  const char* eras[] = {"1: calm (crash-only world)",
                        "2: transient faults (interference)",
                        "3: permanent fault (aging)"};
  for (int e = 0; e < 3; ++e) {
    std::printf("%-34s %11.0f%% %11.0f%%\n", eras[e],
                static_run.eras[e].availability(),
                adaptive.eras[e].availability());
  }
  bench::rule();
  std::printf("final FTM: static = %s, adaptive = %s\n",
              static_run.final_ftm.c_str(), adaptive.final_ftm.c_str());

  std::printf("\n");
  bench::shape_check(static_run.eras[0].availability() == 100.0 &&
                         adaptive.eras[0].availability() == 100.0,
                     "both perfect in era 1: %V\n");
  bench::shape_check(static_run.eras[1].availability() < 95.0 &&
                         static_run.eras[2].availability() < 50.0,
                     "static PBR degrades under value faults: %V "
                     "(era2 %.0f%%, era3 %.0f%%)\n",
                     static_run.eras[1].availability(),
                     static_run.eras[2].availability());
  bench::shape_check(adaptive.eras[1].availability() >= 95.0 &&
                         adaptive.eras[2].availability() >= 70.0,
                     "adaptation keeps correctness high: %V "
                     "(era2 %.0f%%, era3 %.0f%%)\n",
                     adaptive.eras[1].availability(),
                     adaptive.eras[2].availability());
  bench::shape_check(adaptive.final_ftm != "PBR",
                     "the adaptive system actually changed its FTM: %V (%s)\n",
                     adaptive.final_ftm.c_str());
  return bench::shape_exit_code();
}
