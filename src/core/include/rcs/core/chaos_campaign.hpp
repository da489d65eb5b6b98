// Chaos campaigns: one seeded end-to-end robustness run.
//
// A campaign builds a full ResilientSystem, deploys one FTM, unleashes a
// ChaosSchedule derived from the campaign seed, drives a randomized
// put/get/incr workload through the client (optionally performing a
// differential FTM transition mid-run inside a reserved quiet zone), waits
// for every fault to heal and the client to drain, probes liveness, and
// finally checks the recorded history against the HistoryChecker
// invariants.
//
// Everything — schedule, workload, network jitter — derives from the seed,
// so run_campaign(options) twice yields byte-identical traces, and
// replay_campaign(options, schedule) reproduces a failure from just the
// seed. shrink_schedule() greedily removes episodes while the failure still
// reproduces, printing the smallest fault timeline that breaks the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcs/core/system.hpp"
#include "rcs/ftm/history.hpp"
#include "rcs/sim/chaos.hpp"

namespace rcs::core {

struct ChaosCampaignOptions {
  std::uint64_t seed{1};
  std::string ftm{"PBR"};
  bool delta_checkpoint{true};
  /// Non-empty: differential transition to this FTM mid-campaign.
  std::string transition_to{};
  int requests{30};
  sim::Duration request_gap{350 * sim::kMillisecond};
  /// Fault + workload window after deployment.
  sim::Duration chaos_horizon{12 * sim::kSecond};
  int chaos_events{10};
  /// Extra virtual time after the last heal for retransmits to drain.
  sim::Duration drain{10 * sim::kSecond};
  /// Broken-oracle knob for shrink demos: flag any client retransmission
  /// as a violation (chaos makes retries inevitable, so shrinking converges
  /// on a single-episode schedule).
  bool forbid_retries{false};
  /// Record structured spans (rcs::obs) for the whole run and export them in
  /// the result. Deterministic: same seed + options => byte-identical JSON.
  bool record_trace{false};
  /// Enable the fault-simulation registry for this run: the schedule draws
  /// kFsim episodes arming the points reachable from the deployed FTM(s),
  /// and the result carries the (point, state) coverage report.
  bool fsim{true};
  /// Non-empty: restrict the schedule's fsim targets to these points
  /// (fsim::Point as int). Points the FTM cannot reach are still dropped.
  std::vector<int> fsim_points;
  /// Zero out every other fault class so the run exercises fsim points in
  /// isolation (escalation-path tests). Ignored when no target survives the
  /// FTM scoping — a schedule needs at least one enabled class.
  bool fsim_only{false};
};

struct ChaosCampaignResult {
  bool passed{false};
  std::uint64_t seed{0};
  /// e.g. "PBR/delta", "LFR/full", "PBR/delta->LFR".
  std::string label;
  ftm::InvariantReport report;
  sim::ChaosSchedule schedule;
  /// Canonical text: schedule + history + verdict; byte-identical across
  /// replays of the same seed and options.
  std::string trace;
  std::int64_t final_counter{0};
  ftm::Client::Stats client_stats;
  /// Chrome trace_event JSON of the run (empty unless options.record_trace).
  std::string trace_json;
  /// Metrics registry export, one JSON object per line (same gating).
  std::string metrics_json;
  /// Scheduler events processed over the whole campaign (throughput
  /// accounting for the runners' stderr summaries).
  std::uint64_t events{0};
  /// High-water mark of the pending-event queue.
  std::size_t peak_queue_depth{0};
  /// Stub read only by benchmark/rcs_bench.cpp (always 0; see
  /// EventLoop::WheelStats).
  sim::EventLoop::WheelStats wheel{};
  /// Fault-simulation (point, protocol-state) coverage of this run.
  fsim::CoverageReport fsim;
};

/// Generate the schedule from `options.seed` and run it.
[[nodiscard]] ChaosCampaignResult run_campaign(
    const ChaosCampaignOptions& options);

/// Run a campaign under an explicit schedule (replay / shrinking). With the
/// schedule generated from the same options this is exactly run_campaign.
[[nodiscard]] ChaosCampaignResult replay_campaign(
    const ChaosCampaignOptions& options, const sim::ChaosSchedule& schedule);

/// Greedy minimization: repeatedly drop episodes while the campaign still
/// fails. Precondition: replay_campaign(options, schedule) fails.
[[nodiscard]] sim::ChaosSchedule shrink_schedule(
    const ChaosCampaignOptions& options, sim::ChaosSchedule schedule);

}  // namespace rcs::core
