// Throughput–latency sweep: ramp offered load, find the capacity knee.
//
// Builds one ResilientSystem, deploys one FTM, and steps the fleet's offered
// rate from rps_from to rps_to. Each step runs a warmup (queues reach the
// new operating point) followed by a measurement window; the harness records
// achieved goodput, latency mean/quantiles, retransmissions, and the
// physical resource rates (replica-link bytes/s via the same RateSampler the
// monitoring engine uses, CPU utilization via MeterRateSampler). The knee is
// the first step whose goodput falls below goodput_floor of the offered
// rate — the operating point where the FTM's traffic profile outgrows the
// link or the CPU, exactly the condition the paper's resource triggers are
// meant to detect. Monitoring is off: the sweep measures the static system;
// the adaptation-under-load scenario (scenario.hpp) closes the loop.
//
// Determinism: everything derives from options.seed; to_json_lines() uses
// fixed-precision formatting, so the same options yield byte-identical
// output (the CI gate re-runs a sweep and cmp's the files).
#pragma once

#include <string>
#include <vector>

#include "rcs/load/fleet.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::load {

struct SweepOptions {
  std::uint64_t seed{1};
  std::string ftm{"PBR"};
  bool delta_checkpoint{true};
  std::size_t replica_count{2};
  std::size_t clients{40};
  /// Aggregate offered load ramp (requests per virtual second).
  double rps_from{20.0};
  double rps_to{240.0};
  int steps{8};
  sim::Duration warmup{2 * sim::kSecond};
  sim::Duration window{6 * sim::kSecond};
  /// R parameters under test: shrink either and the knee must move left.
  double replica_bandwidth_bps{12'500'000.0};
  double cpu_speed{1.0};
  /// Arrival process kind: "open" | "closed" | "bursty".
  std::string arrival{"open"};
  /// Goodput fraction below which a step counts as past the knee.
  double goodput_floor{0.9};
  ftm::ClientOptions client{};
};

struct SweepPoint {
  double offered_rps{0.0};
  /// Ok completions per second over the window.
  double achieved_rps{0.0};
  double mean_ms{0.0};
  double p50_ms{0.0};
  double p95_ms{0.0};
  double p99_ms{0.0};
  std::uint64_t sent{0};
  std::uint64_t ok{0};
  std::uint64_t errors{0};
  std::uint64_t gave_up{0};
  std::uint64_t retries{0};
  std::size_t outstanding{0};
  /// Replica-link bytes/s over the window (all replica pairs).
  double link_bytes_per_s{0.0};
  /// Busiest replica's CPU utilization over the window (1.0 = saturated).
  double cpu_utilization{0.0};
};

struct SweepResult {
  std::vector<SweepPoint> points;
  /// Index of the first point past the knee; -1 if the ramp never saturates.
  int knee_index{-1};
  /// Scheduler events processed over the whole sweep and the pending-queue
  /// high-water mark (throughput accounting for load_runner's summary).
  std::uint64_t events{0};
  std::size_t peak_queue_depth{0};

  [[nodiscard]] double knee_offered_rps() const {
    return knee_index < 0 ? 0.0
                          : points[static_cast<std::size_t>(knee_index)]
                                .offered_rps;
  }
  /// One JSON object per point plus a trailing summary line; byte-identical
  /// across runs of the same options.
  [[nodiscard]] std::string to_json_lines() const;
};

[[nodiscard]] SweepResult run_sweep(const SweepOptions& options);

}  // namespace rcs::load
