// Adaptation-under-load scenario: the paper's resource loop, closed.
//
// Everything upstream measures pieces in isolation; this scenario wires the
// whole causal chain and checks it end to end:
//
//   fleet traffic -> replica-link bytes + CPU meters -> monitoring probes
//   -> kLinkSaturated trigger (carrying the measured request rate)
//   -> resilience manager viability check -> PBR no longer viable
//   -> MANDATORY differential transition to a lean FTM, executed mid-load
//   -> service stays correct: every fleet request completes and the merged
//      history passes every HistoryChecker invariant.
//
// The numbers are chosen so physics, not thresholds, drive the story: PBR
// with full-state checkpoints moves ~6.7 KB per request between replicas;
// at the configured offered rate that exceeds the saturation threshold of
// the 1.4 MB/s replica link (yet stays under its physical capacity, so the
// service keeps answering), and the measured rate makes PBR fail the
// bandwidth viability budget while LFR-class FTMs pass it.
#pragma once

#include <string>
#include <vector>

#include "rcs/core/monitoring.hpp"
#include "rcs/ftm/history.hpp"
#include "rcs/load/fleet.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::load {

struct AdaptScenarioOptions {
  std::uint64_t seed{1};
  std::size_t clients{30};
  /// Aggregate offered load. Must sit between the saturation threshold of
  /// the starting FTM and the CPU viability cap (~160 rps for app.kvstore).
  double offered_rps{150.0};
  /// Narrow enough that full-state PBR at offered_rps busts the 40%
  /// bandwidth viability budget, wide enough that the link stays stable
  /// (~70% utilized) until the adaptation runs: heartbeats and checkpoints
  /// share this link, and a ramp past its physical capacity would starve
  /// the failure detector into a false suspicion before the manager acts.
  double replica_bandwidth_bps{1'400'000.0};
  /// Budget for trigger + transition after traffic starts.
  sim::Duration horizon{60 * sim::kSecond};
  /// Keep offering load this long after the adaptation: the verdict must
  /// cover steady-state service under the NEW mechanism, not just the
  /// moment of the switch.
  sim::Duration soak{5 * sim::kSecond};
  /// Extra time for the fleet to drain after stop().
  sim::Duration drain{30 * sim::kSecond};
  /// Record Chrome-trace spans + metrics export in the result.
  bool record_trace{false};
};

struct AdaptScenarioResult {
  bool triggered{false};
  sim::Time trigger_at{0};
  /// A mandatory transition executed (the adaptation actually ran).
  bool adapted{false};
  std::string adapted_from;
  std::string adapted_to;
  sim::Time adapted_at{0};
  /// Invariant verdict over the merged multi-client history.
  ftm::InvariantReport report;
  ClientFleet::Totals totals;
  std::int64_t final_counter{0};
  std::vector<core::Trigger> triggers;
  /// Canonical text summary; byte-identical across same-seed runs.
  std::string trace;
  std::string trace_json;    // gated by record_trace
  std::string metrics_json;  // gated by record_trace
  /// Scheduler events processed and pending-queue high-water mark
  /// (throughput accounting for load_runner's summary).
  std::uint64_t events{0};
  std::size_t peak_queue_depth{0};
  bool passed{false};
};

[[nodiscard]] AdaptScenarioResult run_adapt_scenario(
    const AdaptScenarioOptions& options);

}  // namespace rcs::load
