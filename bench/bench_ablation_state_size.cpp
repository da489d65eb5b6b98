// Ablation: application state size — the parameter behind Table 1's
// "PBR: bandwidth high". Checkpoint traffic scales with the state; LFR's
// does not. Sweep the state size, measure replica-link bytes per request
// under both FTMs, and locate the point where PBR stops being viable on a
// constrained link — the crossover that makes the PBR -> LFR transition
// mandatory in the Figure 8 scenarios.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/capability.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

double bytes_per_request(ftm::FtmConfig config, std::size_t state_size,
                         int requests) {
  // This ablation is about the FULL-state checkpoint cost (the Table 1
  // profile); the incremental default is swept in bench_checkpoint_delta.
  config.delta_checkpoint = false;
  core::SystemOptions options;
  options.seed = 77;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  // Resize the application state before the first checkpoint.
  ftm::AppSpec app = system.app_spec();
  app.state_size = state_size;
  std::optional<core::TransitionReport> report;
  system.engine().deploy_initial(config, app,
                                 [&](const core::TransitionReport& r) { report = r; });
  system.sim().run_for(60 * sim::kSecond);
  for (std::size_t i = 0; i < 2; ++i) {
    system.agent(i).runtime().composite().set_property(
        "server", "state_size", Value(static_cast<std::int64_t>(state_size)));
  }

  // link_stats returns a snapshot by value; refetch after the run.
  const auto before = system.sim()
                          .network()
                          .link_stats(system.replica(0).id(),
                                      system.replica(1).id())
                          .bytes;
  for (int i = 0; i < requests; ++i) {
    (void)system.roundtrip(
        Value::map().set("op", "incr").set("key", "k").set("by", 1),
        20 * sim::kSecond);
  }
  const auto after = system.sim()
                         .network()
                         .link_stats(system.replica(0).id(),
                                     system.replica(1).id())
                         .bytes;
  return static_cast<double>(after - before) / requests;
}

}  // namespace

int main() {
  const int requests = 20;
  bench::title("Ablation — application state size vs replica-link traffic");
  std::printf("%d requests per point; the capability model's viability "
              "verdict is evaluated\nat 3.2 Mbit/s (the Fig. 8 'bandwidth "
              "drop' link) and 50 req/s\n\n",
              requests);
  std::printf("%-10s %14s %14s %12s %22s\n", "state", "PBR B/req", "LFR B/req",
              "ratio", "PBR viable @3.2Mbit/s?");
  bench::rule();

  core::FtarState constrained;
  constrained.fault_model = core::FaultModel{true, false, false};
  constrained.resources.bandwidth_bps = 400'000.0;
  constrained.resources.request_rate = 50.0;

  bool crossover_seen = false;
  bool previous_viable = true;
  double first_ratio = 0, last_ratio = 0;
  const std::size_t sizes[] = {256, 1024, 4096, 16384, 65536};
  for (const auto size : sizes) {
    const double pbr = bytes_per_request(ftm::FtmConfig::pbr(), size, requests);
    const double lfr = bytes_per_request(ftm::FtmConfig::lfr(), size, requests);
    constrained.app = app::spec_for("app.kvstore");
    constrained.app.state_size = size;
    const bool viable =
        core::resource_viable(ftm::FtmConfig::pbr(), constrained).valid;
    if (previous_viable && !viable) crossover_seen = true;
    previous_viable = viable;
    const double ratio = pbr / lfr;
    if (first_ratio == 0) first_ratio = ratio;
    last_ratio = ratio;
    std::printf("%7zu B %14.0f %14.0f %11.1fx %22s\n", size, pbr, lfr, ratio,
                viable ? "yes" : "NO -> mandatory LFR");
  }

  bench::rule();
  bench::shape_check(last_ratio > 4 * first_ratio,
                     "PBR traffic scales with state, LFR's does not "
                     "(ratio %.0fx -> %.0fx): %V\n",
                     first_ratio, last_ratio);
  bench::shape_check(crossover_seen,
                     "a viability crossover exists in the sweep: %V\n");
  std::printf("(beyond the crossover the resilience manager would classify "
              "staying on PBR as a\nmandatory transition trigger — the "
              "'bandwidth drop' edge of Fig. 8 seen from the\nstate-size "
              "axis)\n");
  return bench::shape_exit_code();
}
