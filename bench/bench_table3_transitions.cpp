// Reproduces Table 3: "FTM deployment from scratch w.r.t. transition
// execution time (ms)".
//
// Rows: the currently deployed FTM (∅ = nothing: the cell is a full
// deployment). Columns: the target FTM. Every cell is the mean per-replica
// reconfiguration time over N seeded runs (paper: 100 runs; deployment and
// transition run in parallel on both replicas, and like the paper we report
// the per-replica time).
//
// Paper's claims under test:
//   - full deployment ~3.8 s; differential transitions ~0.8-1.2 s;
//   - the transition time grows with the number of replaced components
//     (1 -> 2 -> 3 bricks);
//   - the ratio deployment/transition (~3.3-4.6x) matters more than the
//     absolute numbers (our substrate charges the calibrated virtual-cost
//     model documented in src/core/include/rcs/core/cost_model.hpp).
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

double measure_deploy(const ftm::FtmConfig& to, std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  return sim::to_ms(system.deploy_and_wait(to).mean_replica_total());
}

double measure_transition(const ftm::FtmConfig& from, const ftm::FtmConfig& to,
                          std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(from);
  return sim::to_ms(system.transition_and_wait(to).mean_replica_total());
}

}  // namespace

int main() {
  const int n = bench::runs();
  const auto& set = ftm::FtmConfig::table3_set();

  bench::title("Table 3 — FTM deployment from scratch w.r.t. transition "
               "execution time (virtual ms)");
  std::printf("averaged over %d seeded runs per cell; per-replica times\n\n", n);

  std::printf("%-8s", "FTM1\\2");
  for (const auto& to : set) std::printf("%9s", to.name.c_str());
  std::printf("\n");

  // First row: deployment from scratch (the paper's ∅ row).
  std::printf("%-8s", "(none)");
  std::vector<double> deploy_means;
  for (const auto& to : set) {
    std::vector<double> samples;
    for (int run = 0; run < n; ++run) {
      samples.push_back(measure_deploy(to, 1000 + run));
    }
    const auto s = bench::stats_of(samples);
    deploy_means.push_back(s.mean);
    std::printf("%9.0f", s.mean);
  }
  std::printf("\n");

  double transition_sum = 0;
  int transition_cells = 0;
  double by_diff_sum[4] = {0, 0, 0, 0};
  int by_diff_count[4] = {0, 0, 0, 0};

  for (const auto& from : set) {
    std::printf("%-8s", from.name.c_str());
    for (const auto& to : set) {
      if (from == to) {
        std::printf("%9d", 0);
        continue;
      }
      std::vector<double> samples;
      for (int run = 0; run < n; ++run) {
        samples.push_back(measure_transition(from, to, 2000 + run));
      }
      const auto s = bench::stats_of(samples);
      std::printf("%9.0f", s.mean);
      transition_sum += s.mean;
      ++transition_cells;
      const int diff = from.diff_size(to);
      by_diff_sum[diff] += s.mean;
      ++by_diff_count[diff];
    }
    std::printf("\n");
  }

  bench::rule();
  const double mean_deploy =
      std::accumulate(deploy_means.begin(), deploy_means.end(), 0.0) /
      static_cast<double>(deploy_means.size());
  const double mean_transition =
      transition_sum / static_cast<double>(transition_cells);
  std::printf("mean deployment     : %7.0f ms   (paper: ~3750-3850 ms)\n",
              mean_deploy);
  std::printf("mean transition     : %7.0f ms   (paper: ~830-1190 ms)\n",
              mean_transition);
  std::printf("deploy / transition : %7.1fx     (paper: ~3.3-4.6x)\n",
              mean_deploy / mean_transition);
  for (int d = 1; d <= 3; ++d) {
    if (by_diff_count[d] == 0) continue;
    std::printf("mean %d-component    : %7.0f ms over %d pairs\n", d,
                by_diff_sum[d] / by_diff_count[d], by_diff_count[d]);
  }
  std::printf("\n");
  bench::shape_check(by_diff_sum[1] / by_diff_count[1] <
                             by_diff_sum[2] / by_diff_count[2] &&
                         by_diff_sum[2] / by_diff_count[2] <
                             by_diff_sum[3] / by_diff_count[3],
                     "transition time must grow with components replaced: %V\n");
  return bench::shape_exit_code();
}
