// Extension bench: replica-group size (§3.2.1's "multiple Backups or
// Followers"). Sweeps N = 2..7 replicas and measures, per FTM family:
//   - request latency (PBR waits for ALL backup acks; LFR is fire-and-forget),
//   - inter-replica bytes per request (checkpoints fan out to N-1 backups),
//   - crashes survivable (N-1, verified by actually crashing replicas).
// The latency/bandwidth scaling is the quantitative argument for the paper's
// remark that atomic broadcast becomes "highly useful" at larger N.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

Value kv_incr() {
  return Value::map().set("op", "incr").set("key", "k").set("by", 1);
}

struct GroupProfile {
  double latency_ms{0};
  double group_bytes_per_request{0};
  double transition_ms{0};
  int crashes_survived{0};
};

GroupProfile measure(const ftm::FtmConfig& config, std::size_t n,
                     int requests) {
  core::SystemOptions options;
  options.seed = 31;
  options.replica_count = n;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(config);
  (void)system.roundtrip(kv_incr(), 30 * sim::kSecond);  // warm-up

  const auto bytes_before = system.sim().network().total_bytes();
  const auto latency_before = system.client().stats().latency_total();
  for (int i = 0; i < requests; ++i) {
    (void)system.roundtrip(kv_incr(), 30 * sim::kSecond);
  }
  GroupProfile profile;
  const sim::Duration sum =
      system.client().stats().latency_total() - latency_before;
  profile.latency_ms = sim::to_ms(sum) / requests;
  // Approximate group traffic: everything minus the client/manager legs is
  // dominated by replica-link traffic for this workload.
  profile.group_bytes_per_request = static_cast<double>(
      system.sim().network().total_bytes() - bytes_before) / requests;

  {
    // Group-wide differential transition and back (PBR<->LFR class moves),
    // measured after the traffic accounting so it does not pollute it.
    const auto& other = config.name == "PBR" ? ftm::FtmConfig::lfr()
                                             : ftm::FtmConfig::pbr();
    const auto there = system.transition_and_wait(other);
    (void)system.transition_and_wait(config);
    profile.transition_ms = sim::to_ms(there.mean_replica_total());
  }

  // Crash replicas one by one (always the current lowest = the master) and
  // count how many crashes the service absorbs.
  std::int64_t expected = 1 + requests;
  for (std::size_t crash = 0; crash + 1 < n; ++crash) {
    system.replica(crash).crash();
    Value reply;
    bool got = false;
    system.client().send(kv_incr(), [&](const Value& r) {
      reply = r;
      got = true;
    });
    system.sim().run_for(60 * sim::kSecond);
    ++expected;
    if (!got || reply.has("error") ||
        reply.at("result").at("value").as_int() != expected) {
      break;
    }
    ++profile.crashes_survived;
  }
  return profile;
}

}  // namespace

int main() {
  const int requests = 20;
  bench::title("Replica-group scaling (multiple backups / followers, §3.2.1)");
  std::printf("%d requests per point; group traffic includes heartbeats\n\n",
              requests);
  std::printf("%-6s %-8s %12s %16s %12s %18s\n", "N", "FTM", "latency",
              "group B/request", "transition", "crashes survived");
  bench::rule();

  double pbr_bytes_n2 = 0, pbr_bytes_n7 = 0;
  bool survivability_scales = true;
  for (const std::size_t n : {2u, 3u, 5u, 7u}) {
    for (const auto* config : {&ftm::FtmConfig::pbr(), &ftm::FtmConfig::lfr()}) {
      const GroupProfile p = measure(*config, n, requests);
      std::printf("%-6zu %-8s %10.1fms %16.0f %10.0fms %12d of %zu\n", n,
                  config->name.c_str(), p.latency_ms, p.group_bytes_per_request,
                  p.transition_ms, p.crashes_survived, n - 1);
      if (config->name == "PBR") {
        if (n == 2) pbr_bytes_n2 = p.group_bytes_per_request;
        if (n == 7) pbr_bytes_n7 = p.group_bytes_per_request;
        if (p.crashes_survived != static_cast<int>(n - 1)) {
          survivability_scales = false;
        }
      }
    }
  }

  bench::rule();
  bench::shape_check(pbr_bytes_n7 > 2.5 * pbr_bytes_n2,
                     "PBR group traffic fans out with N (x%.1f from "
                     "N=2 to N=7): %V\n",
                     pbr_bytes_n7 / pbr_bytes_n2);
  bench::shape_check(survivability_scales,
                     "an N-replica PBR group survives N-1 crashes: %V\n");
  std::printf("(the checkpoint fan-out and all-ack wait are why the paper "
              "points at atomic\nbroadcast for larger groups)\n");
  return bench::shape_exit_code();
}
