// Empirical R-row of Table 1: per-request latency, inter-replica bandwidth,
// CPU and energy of every FTM, measured on a live deployment serving the
// KV workload. This is where "PBR: bandwidth high / CPU low" and "LFR:
// bandwidth low / CPU high (two replicas compute)" become measured numbers.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

struct Profile {
  double latency_ms{0};
  double replica_bytes_per_request{0};
  double primary_cpu_ms{0};
  double total_cpu_ms{0};
  double energy{0};
};

Profile measure(ftm::FtmConfig config, int requests, std::uint64_t seed,
                bool delta_checkpoint = false) {
  // Table 1 characterizes the classic full-state PBR family; the incremental
  // default is measured as its own row (and in bench_checkpoint_delta).
  config.delta_checkpoint = delta_checkpoint;
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(config);
  (void)system.roundtrip(
      Value::map().set("op", "put").set("key", "k").set("value", "warm"));

  // link_stats returns a snapshot by value; refetch after the run.
  const auto bytes_before =
      system.sim()
          .network()
          .link_stats(system.replica(0).id(), system.replica(1).id())
          .bytes;
  const auto cpu0_before = system.replica(0).meter().cpu_used();
  const auto cpu1_before = system.replica(1).meter().cpu_used();
  const auto latency_before = system.client().stats().latency_total();

  for (int i = 0; i < requests; ++i) {
    (void)system.roundtrip(
        Value::map().set("op", "incr").set("key", "k").set("by", 1));
  }

  Profile profile;
  const sim::Duration latency_sum =
      system.client().stats().latency_total() - latency_before;
  profile.latency_ms = sim::to_ms(latency_sum) / requests;
  const auto bytes_after =
      system.sim()
          .network()
          .link_stats(system.replica(0).id(), system.replica(1).id())
          .bytes;
  profile.replica_bytes_per_request =
      static_cast<double>(bytes_after - bytes_before) / requests;
  profile.primary_cpu_ms =
      sim::to_ms(system.replica(0).meter().cpu_used() - cpu0_before) / requests;
  profile.total_cpu_ms =
      sim::to_ms((system.replica(0).meter().cpu_used() - cpu0_before) +
                 (system.replica(1).meter().cpu_used() - cpu1_before)) /
      requests;
  profile.energy =
      (system.replica(0).meter().energy_used(system.replica(0).capacity()) +
       system.replica(1).meter().energy_used(system.replica(1).capacity()));
  return profile;
}

}  // namespace

int main() {
  const int requests = 50;
  bench::title("Per-request resource profile of every FTM (Table 1 R row, "
               "measured)");
  std::printf("%d requests per FTM; kv application, 5 ms/request reference "
              "CPU, 4 KB state\n\n",
              requests);
  std::printf("%-8s %10s %14s %12s %12s %10s\n", "FTM", "latency", "link "
              "B/req", "primary CPU", "total CPU", "energy");
  bench::rule();

  std::map<std::string, Profile> profiles;
  for (const auto& config : ftm::FtmConfig::standard_set()) {
    const Profile p = measure(config, requests, 42);
    profiles[config.name] = p;
    std::printf("%-8s %8.1fms %12.0f %10.1fms %10.1fms %10.2f\n",
                config.name.c_str(), p.latency_ms, p.replica_bytes_per_request,
                p.primary_cpu_ms, p.total_cpu_ms, p.energy);
  }
  // The incremental-checkpoint default, for contrast with the classic row.
  const Profile pbr_delta =
      measure(ftm::FtmConfig::pbr(), requests, 42, /*delta_checkpoint=*/true);
  std::printf("%-8s %8.1fms %12.0f %10.1fms %10.1fms %10.2f\n", "PBR \xCE\x94",
              pbr_delta.latency_ms, pbr_delta.replica_bytes_per_request,
              pbr_delta.primary_cpu_ms, pbr_delta.total_cpu_ms,
              pbr_delta.energy);

  bench::rule();
  const auto& pbr = profiles.at("PBR");
  const auto& lfr = profiles.at("LFR");
  const auto& pbr_tr = profiles.at("PBR_TR");
  bench::shape_check(
      pbr.replica_bytes_per_request > 3 * lfr.replica_bytes_per_request,
      "PBR bandwidth HIGH vs LFR LOW: %V (%.0f vs %.0f B/req)\n",
      pbr.replica_bytes_per_request, lfr.replica_bytes_per_request);
  bench::shape_check(lfr.total_cpu_ms > 1.6 * pbr.total_cpu_ms,
                     "LFR total CPU ~2x PBR (both replicas compute): "
                     "%V (%.1f vs %.1f ms)\n",
                     lfr.total_cpu_ms, pbr.total_cpu_ms);
  bench::shape_check(pbr_tr.primary_cpu_ms > 1.6 * pbr.primary_cpu_ms,
                     "TR primary CPU ~2x plain compute: %V (%.1f vs %.1f ms)\n",
                     pbr_tr.primary_cpu_ms, pbr.primary_cpu_ms);
  bench::shape_check(pbr_tr.energy > pbr.energy && lfr.energy > pbr.energy,
                     "computation-heavy FTMs cost more energy: %V\n");
  bench::shape_check(
      pbr_delta.replica_bytes_per_request < 0.5 * pbr.replica_bytes_per_request,
      "delta checkpointing erases most of PBR's "
      "bandwidth penalty: %V (%.0f vs %.0f B/req)\n",
      pbr_delta.replica_bytes_per_request, pbr.replica_bytes_per_request);
  return bench::shape_exit_code();
}
