#include "rcs/load/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "rcs/common/error.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::load {

namespace {

/// Pending-event depth reserved before the ramp: roughly one in-flight timer
/// set per client plus detector and checkpoint timers, with headroom for the
/// saturated tail of the ramp.
constexpr std::size_t kQueueDepthHint = 4096;

void append_json(std::string& out, const SweepPoint& p) {
  char line[512];
  std::snprintf(
      line, sizeof line,
      "{\"offered_rps\":%.3f,\"achieved_rps\":%.3f,\"mean_ms\":%.3f,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"sent\":%llu,\"ok\":%llu,\"errors\":%llu,\"gave_up\":%llu,"
      "\"retries\":%llu,\"outstanding\":%zu,"
      "\"link_bytes_per_s\":%.1f,\"cpu_utilization\":%.4f}\n",
      p.offered_rps, p.achieved_rps, p.mean_ms, p.p50_ms, p.p95_ms, p.p99_ms,
      static_cast<unsigned long long>(p.sent),
      static_cast<unsigned long long>(p.ok),
      static_cast<unsigned long long>(p.errors),
      static_cast<unsigned long long>(p.gave_up),
      static_cast<unsigned long long>(p.retries), p.outstanding,
      p.link_bytes_per_s, p.cpu_utilization);
  out += line;
}

}  // namespace

std::string SweepResult::to_json_lines() const {
  std::string out;
  for (const auto& point : points) append_json(out, point);
  char summary[128];
  std::snprintf(summary, sizeof summary,
                "{\"knee_index\":%d,\"knee_offered_rps\":%.3f}\n", knee_index,
                knee_offered_rps());
  out += summary;
  return out;
}

SweepResult run_sweep(const SweepOptions& options) {
  ensure(options.steps > 0, "run_sweep: needs at least one step");
  ensure(options.clients > 0, "run_sweep: needs at least one client");
  ensure(options.rps_from > 0.0 && options.rps_to >= options.rps_from,
         "run_sweep: bad rate ramp");

  core::SystemOptions sys;
  sys.seed = options.seed;
  sys.replica_count = options.replica_count;
  sys.replica_bandwidth_bps = options.replica_bandwidth_bps;
  sys.start_monitoring = false;  // the sweep measures, it does not adapt
  core::ResilientSystem system(sys);
  system.sim().loop().reserve(kQueueDepthHint);
  for (std::size_t i = 0; i < system.replica_count(); ++i) {
    system.replica(i).capacity().cpu_speed = options.cpu_speed;
  }

  auto config = ftm::FtmConfig::by_name(options.ftm);
  config.delta_checkpoint = options.delta_checkpoint;
  system.deploy_and_wait(config);

  FleetOptions fleet_options;
  fleet_options.clients = options.clients;
  fleet_options.seed = options.seed;
  fleet_options.client = options.client;
  const double rate0 =
      options.rps_from / static_cast<double>(options.clients);
  ClientFleet fleet(system, fleet_options,
                    make_process(options.arrival, rate0));
  fleet.start();

  // One sampler per physical quantity, primed at each window boundary so a
  // window reads exactly its own delta — the same audited rate path the
  // monitoring engine uses.
  sim::RateSampler link_rate;
  std::vector<sim::MeterRateSampler> cpu_rates(system.replica_count());
  const auto replica_link_bytes = [&system] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < system.replica_count(); ++i) {
      for (std::size_t j = i + 1; j < system.replica_count(); ++j) {
        bytes += system.sim()
                     .network()
                     .link_stats(system.replica(i).id(), system.replica(j).id())
                     .bytes;
      }
    }
    return bytes;
  };

  SweepResult result;
  auto& sim = system.sim();
  for (int step = 0; step < options.steps; ++step) {
    const double offered =
        options.steps == 1
            ? options.rps_from
            : options.rps_from + (options.rps_to - options.rps_from) *
                                     static_cast<double>(step) /
                                     static_cast<double>(options.steps - 1);
    fleet.set_rate(offered / static_cast<double>(options.clients));

    sim.run_for(options.warmup);
    fleet.begin_window();
    (void)link_rate.sample(sim.now(), replica_link_bytes());
    for (std::size_t i = 0; i < cpu_rates.size(); ++i) {
      (void)cpu_rates[i].sample(sim.now(), system.replica(i).meter());
    }

    sim.run_for(options.window);

    const auto window = fleet.window();
    const double window_s =
        static_cast<double>(sim.now() - window.started) / sim::kSecond;
    SweepPoint point;
    point.offered_rps = offered;
    point.achieved_rps =
        window_s > 0.0 ? static_cast<double>(window.delta.ok) / window_s : 0.0;
    point.mean_ms = window.mean_ms();
    point.p50_ms = window.quantile_ms(0.50);
    point.p95_ms = window.quantile_ms(0.95);
    point.p99_ms = window.quantile_ms(0.99);
    point.sent = window.delta.sent;
    point.ok = window.delta.ok;
    point.errors = window.delta.errors;
    point.gave_up = window.delta.gave_up;
    point.retries = window.delta.retries;
    point.outstanding = fleet.outstanding();
    point.link_bytes_per_s = link_rate.sample(sim.now(), replica_link_bytes());
    double cpu = 0.0;
    for (std::size_t i = 0; i < cpu_rates.size(); ++i) {
      cpu = std::max(
          cpu, cpu_rates[i].sample(sim.now(), system.replica(i).meter())
                   .cpu_utilization);
    }
    point.cpu_utilization = cpu;
    result.points.push_back(point);

    // Knee: goodput fell below the floor by more than Poisson noise. At low
    // rates a window holds few completions and sqrt(n) fluctuation alone can
    // dip under the floor; two standard deviations of slack keeps the
    // detector quiet there without delaying it at real saturation, where the
    // shortfall is tens of percent.
    const double expected = offered * window_s;
    const double slack = 2.0 * std::sqrt(std::max(expected, 1.0)) / window_s;
    if (result.knee_index < 0 &&
        point.achieved_rps < options.goodput_floor * offered - slack) {
      result.knee_index = step;
    }
  }

  fleet.stop();
  result.events = sim.loop().processed();
  result.peak_queue_depth = sim.loop().peak_pending();
  return result;
}

}  // namespace rcs::load
