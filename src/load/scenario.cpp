#include "rcs/load/scenario.hpp"

#include "rcs/app/app_base.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/core/system.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::load {

namespace {

/// Pending-event depth reserved before the scenario starts (clients,
/// detectors, checkpoint + monitoring timers).
constexpr std::size_t kQueueDepthHint = 4096;

}  // namespace

AdaptScenarioResult run_adapt_scenario(const AdaptScenarioOptions& options) {
  core::SystemOptions sys;
  sys.seed = options.seed;
  sys.start_monitoring = true;
  sys.replica_bandwidth_bps = options.replica_bandwidth_bps;
  // The replica link is intentionally narrow; keep the bandwidth-DROP latch
  // quiet (its default low threshold sits above 1.4 MB/s) and put the
  // saturation latch where PBR's traffic profile crosses it but LFR's does
  // not: full-state PBR moves ~6.7 KB per request on the wire, so the
  // offered 150 req/s drives ~1 MB/s through the 1.4 MB/s link — 72%
  // utilization, past the 0.5 latch, while LFR's ~350 B/request profile
  // sits far below the 0.15 release threshold. The capability model prices
  // PBR at 4596 B/request, so the measured rate also busts the 40%
  // bandwidth viability budget (non-viable above ~122 req/s here) while the
  // CPU budget (160 req/s at speed 1.0) still holds: the resulting decision
  // is MANDATORY, not optional.
  sys.thresholds.bandwidth_low_bps = 3e5;
  sys.thresholds.bandwidth_high_bps = 6e5;
  sys.thresholds.utilization_high = 0.5;
  sys.thresholds.utilization_low = 0.15;
  core::ResilientSystem system(sys);
  system.sim().loop().reserve(kQueueDepthHint);
  if (options.record_trace) system.sim().tracer().set_enabled(true);

  // Full-state PBR: the heaviest per-request traffic profile, and the one
  // the capability model estimates faithfully (delta checkpoints would make
  // the estimate pessimistic and the story threshold-dependent).
  auto config = ftm::FtmConfig::pbr();
  config.delta_checkpoint = false;
  system.deploy_and_wait(config);
  const std::string initial_ftm = system.engine().current().name;

  FleetOptions fleet_options;
  fleet_options.clients = options.clients;
  fleet_options.seed = options.seed;
  fleet_options.record_history = true;
  // Patience over raw failover speed: mid-transition the service pauses
  // (quiescence gate), and a fleet member must keep retrying through it
  // rather than give up and break liveness.
  fleet_options.client.max_attempts = 16;
  ClientFleet fleet(
      system, fleet_options,
      make_process("open",
                   options.offered_rps / static_cast<double>(options.clients)));

  auto& sim = system.sim();
  fleet.start();

  AdaptScenarioResult result;

  // --- Phase 1: run until the monitoring trigger and the mandatory
  // transition it causes have both happened (or the horizon expires).
  const sim::Time deadline = sim.now() + options.horizon;
  const auto saturation_trigger = [&]() -> const core::Trigger* {
    for (const auto& trigger : system.monitoring().trigger_log()) {
      if (trigger.kind == core::TriggerKind::kLinkSaturated) return &trigger;
    }
    return nullptr;
  };
  const auto executed_transition =
      [&]() -> const core::ResilienceManager::HistoryEntry* {
    for (const auto& entry : system.manager().history()) {
      if (entry.executed && entry.decision == core::DecisionKind::kMandatory) {
        return &entry;
      }
    }
    return nullptr;
  };
  while (sim.now() < deadline) {
    if (saturation_trigger() != nullptr && executed_transition() != nullptr &&
        system.engine().current().name != initial_ftm) {
      break;
    }
    if (sim.loop().empty()) break;
    sim.loop().step();
  }

  if (const auto* trigger = saturation_trigger()) {
    result.triggered = true;
    result.trigger_at = trigger->at;
  }
  if (const auto* entry = executed_transition()) {
    result.adapted = system.engine().current().name != initial_ftm;
    result.adapted_from = entry->from;
    result.adapted_to = system.engine().current().name;
    result.adapted_at = entry->at;
  }
  // --- Phase 2: soak under the new FTM — the adaptation only counts if the
  // service keeps answering afterwards.
  if (result.adapted) sim.run_for(options.soak);
  result.triggers = system.monitoring().trigger_log();

  // --- Phase 3: stop offering load, let every outstanding request finish.
  fleet.stop();
  const sim::Time drain_deadline = sim.now() + options.drain;
  while (fleet.outstanding() > 0 && sim.now() < drain_deadline) {
    if (sim.loop().empty()) break;
    sim.loop().step();
  }

  // --- Phase 4: authoritative counter read through the system's own client
  // (its requests are not part of the fleet history, so reads only).
  std::int64_t final_counter = 0;
  bool final_counter_valid = false;
  const auto read = system.try_roundtrip(
      Value::map().set("op", "get").set("key", "ctr"), 15 * sim::kSecond);
  if (read && read->is_map() && !read->has("error") && read->has("result")) {
    const Value& value = read->at("result");
    if (value.at("found").as_bool()) final_counter = value.at("value").as_int();
    final_counter_valid = true;
  }

  // --- Verdict: the chaos campaigns' oracle, over the merged fleet history.
  ftm::HistoryChecker::Inputs inputs;
  inputs.counter_key = "ctr";
  inputs.final_counter = final_counter;
  inputs.final_counter_valid = final_counter_valid;
  inputs.outstanding = fleet.outstanding();
  inputs.result_valid = [](const Value& value) {
    return app::AppServerBase::checksum_ok(value);
  };
  inputs.kernel_counters_valid = false;  // transition redeploys the kernels
  const auto records = fleet.merged_history();
  result.report = ftm::HistoryChecker::check(records, inputs);
  if (!result.triggered) {
    result.report.violations.push_back(
        "monitoring never fired kLinkSaturated under fleet load");
  }
  if (!result.adapted) {
    result.report.violations.push_back(
        "no mandatory transition executed under load");
  }
  if (!final_counter_valid) {
    result.report.violations.push_back(
        "final counter read failed after quiescence");
  }

  result.totals = fleet.totals();
  result.final_counter = final_counter;
  result.events = sim.loop().processed();
  result.peak_queue_depth = sim.loop().peak_pending();
  result.passed = result.report.ok();
  if (options.record_trace) {
    result.trace_json = sim.tracer().export_chrome_json();
    result.metrics_json = obs::snapshot_json(sim.metrics(), "adapt_scenario");
  }
  result.trace = strf(
      "adapt scenario seed=", options.seed, " clients=", options.clients,
      " offered=", options.offered_rps, " rps\n",
      "triggered=", result.triggered ? 1 : 0, " at=", result.trigger_at,
      " adapted=", result.adapted ? 1 : 0, " from=", result.adapted_from,
      " to=", result.adapted_to, " at=", result.adapted_at, "\n",
      "requests sent=", result.totals.sent, " ok=", result.totals.ok,
      " errors=", result.totals.errors, " gave_up=", result.totals.gave_up,
      " retries=", result.totals.retries,
      " final_counter=", final_counter, "\n",
      "verdict: ", result.report.to_string(), "\n");
  return result;
}

}  // namespace rcs::load
