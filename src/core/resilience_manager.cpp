#include "rcs/core/resilience_manager.hpp"

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::core {

namespace {
/// Relative cost improvement a possible transition must offer (guards
/// against churn on marginal differences).
constexpr double kImprovementMargin = 0.15;
}  // namespace

const char* to_string(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kNoChange: return "no_change";
    case DecisionKind::kMandatory: return "mandatory";
    case DecisionKind::kPossible: return "possible";
    case DecisionKind::kIntraFtm: return "intra-FTM";
    case DecisionKind::kNoSolution: return "no_solution";
  }
  return "?";
}

ResilienceManager::ResilienceManager(AdaptationEngine& engine, FtarState initial,
                                     sim::Host* scheduler)
    : engine_(engine),
      scheduler_(scheduler),
      state_(std::move(initial)),
      policy_([](const ftm::FtmConfig&, const std::string&) { return false; }) {}

std::optional<ftm::FtmConfig> ResilienceManager::select_best(
    const FtarState& state) const {
  std::optional<ftm::FtmConfig> best;
  double best_cost = 0.0;
  for (const auto& candidate : ftm::FtmConfig::standard_set()) {
    if (!validate(candidate, state).valid) continue;
    if (!resource_viable(candidate, state).valid) continue;
    const double cost = resource_cost(candidate, state);
    if (!best || cost < best_cost) {
      best = candidate;
      best_cost = cost;
    }
  }
  return best;
}

std::optional<ftm::FtmConfig> ResilienceManager::select_minimal_change(
    const FtarState& state) const {
  const ftm::FtmConfig& current = engine_.current();
  std::optional<ftm::FtmConfig> best;
  // Lexicographic score: (differential distance, excess coverage, cost).
  int best_diff = 0;
  int best_excess = 0;
  double best_cost = 0.0;
  for (const auto& candidate : ftm::FtmConfig::standard_set()) {
    if (!validate(candidate, state).valid) continue;
    if (!resource_viable(candidate, state).valid) continue;
    const int diff = current.name.empty() ? 0 : current.diff_size(candidate);
    const Capability cap = capability_of(candidate, state.app);
    int excess = 0;
    if (cap.coverage.crash && !state.fault_model.crash) ++excess;
    if (cap.coverage.transient_value && !state.fault_model.transient_value) ++excess;
    if (cap.coverage.permanent_value && !state.fault_model.permanent_value) ++excess;
    if (cap.coverage.development && !state.fault_model.development) ++excess;
    const double cost = resource_cost(candidate, state);
    const auto better = [&] {
      if (diff != best_diff) return diff < best_diff;
      if (excess != best_excess) return excess < best_excess;
      return cost < best_cost;
    };
    if (!best || better()) {
      best = candidate;
      best_diff = diff;
      best_excess = excess;
      best_cost = cost;
    }
  }
  return best;
}

Decision ResilienceManager::evaluate(const FtarState& state) const {
  Decision decision;
  const ftm::FtmConfig& current = engine_.current();
  ValidityReport current_validity = validate(current, state);
  bool coverage_driven = false;
  for (const auto& reason : current_validity.reasons) {
    if (reason.find("fault model") != std::string::npos) coverage_driven = true;
  }
  if (current_validity.valid) {
    // A functionally correct FTM that can no longer sustain the workload
    // must also be left: "affects its performance" => mandatory (§5.4).
    current_validity = resource_viable(current, state);
  }
  const auto best =
      coverage_driven ? select_minimal_change(state) : select_best(state);

  if (!current_validity.valid) {
    if (!best) {
      decision.kind = DecisionKind::kNoSolution;
      decision.reason =
          strf("current FTM unusable (", current_validity.reasons.front(),
               ") and no candidate covers the new state");
      return decision;
    }
    decision.kind = DecisionKind::kMandatory;
    decision.target = *best;
    decision.reason = current_validity.reasons.front();
    return decision;
  }

  if (best && best->name != current.name) {
    const double current_cost = resource_cost(current, state);
    const double best_cost = resource_cost(*best, state);
    if (best_cost < current_cost * (1.0 - kImprovementMargin)) {
      decision.kind = DecisionKind::kPossible;
      decision.target = *best;
      decision.reason = strf(best->name, " is cheaper under current resources (",
                             best_cost, " vs ", current_cost, ")");
      return decision;
    }
  }

  // Relaxation (the graph's "hardware replaced" / "less critical phase"
  // edges): the current FTM over-protects against fault classes no longer in
  // the model; a tighter FTM at comparable cost is a possible transition.
  const auto excess_of = [&state](const ftm::FtmConfig& config) {
    const Capability cap = capability_of(config, state.app);
    int excess = 0;
    if (cap.coverage.crash && !state.fault_model.crash) ++excess;
    if (cap.coverage.transient_value && !state.fault_model.transient_value) ++excess;
    if (cap.coverage.permanent_value && !state.fault_model.permanent_value) ++excess;
    if (cap.coverage.development && !state.fault_model.development) ++excess;
    return excess;
  };
  if (!current.name.empty() && excess_of(current) > 0) {
    std::optional<ftm::FtmConfig> tighter;
    int tighter_diff = 0;
    int tighter_excess = 0;
    for (const auto& candidate : ftm::FtmConfig::standard_set()) {
      if (candidate.name == current.name) continue;
      if (excess_of(candidate) >= excess_of(current)) continue;
      if (!validate(candidate, state).valid) continue;
      if (!resource_viable(candidate, state).valid) continue;
      if (resource_cost(candidate, state) >
          resource_cost(current, state) * 1.05) {
        continue;
      }
      const int diff = current.diff_size(candidate);
      const int excess = excess_of(candidate);
      if (!tighter || diff < tighter_diff ||
          (diff == tighter_diff && excess < tighter_excess)) {
        tighter = candidate;
        tighter_diff = diff;
        tighter_excess = excess;
      }
    }
    if (tighter) {
      decision.kind = DecisionKind::kPossible;
      decision.target = *tighter;
      decision.reason =
          strf(current.name, " over-protects against the current fault model; ",
               tighter->name, " suffices");
      return decision;
    }
  }

  decision.reason = "current FTM remains appropriate";
  return decision;
}

void ResilienceManager::react(const std::string& cause) {
  const Decision decision = evaluate(state_);
  HistoryEntry entry;
  entry.at = scheduler_ != nullptr ? scheduler_->sim().now() : 0;
  entry.cause = cause;
  entry.decision = decision.kind;
  entry.from = engine_.current().name;

  switch (decision.kind) {
    case DecisionKind::kNoChange:
      // The FTM stays, but the context it assumes changed: execute an
      // intra-FTM transition so the deployed configuration records the new
      // (FT, A, R) values (Fig. 8's dotted edges).
      if (!(state_ == last_applied_) && !engine_.current().name.empty() &&
          !engine_.busy()) {
        Value context = Value::map();
        context.set("fault_model", state_.fault_model.to_string())
            .set("deterministic", state_.app.deterministic)
            .set("state_access", state_.app.state_access)
            .set("bandwidth_bps", state_.resources.bandwidth_bps)
            .set("cpu_speed", state_.resources.cpu_speed);
        engine_.intra_update(context, {});
        entry.decision = DecisionKind::kIntraFtm;
        entry.to = entry.from;
        entry.executed = true;
        last_applied_ = state_;
      }
      break;
    case DecisionKind::kIntraFtm:
      break;  // evaluate() never produces this directly
    case DecisionKind::kNoSolution:
      no_solution_ = true;
      log().error("resilience",
                  "NO GENERIC SOLUTION for the current (FT,A,R): ",
                  decision.reason);
      break;
    case DecisionKind::kMandatory:
      entry.to = decision.target->name;
      if (engine_.busy()) {
        log().warn("resilience", "adaptation already in progress; deferring");
        // Re-evaluate once the engine should be free: a mandatory
        // transition must not be lost to unlucky timing.
        if (scheduler_ != nullptr && !recheck_armed_) {
          recheck_armed_ = true;
          scheduler_->schedule_after(
              2 * sim::kSecond,
              [this, cause] {
                recheck_armed_ = false;
                react(strf("recheck:", cause));
              },
              "resilience.recheck");
        }
        break;
      }
      log().info("resilience", "MANDATORY transition ", entry.from, " -> ",
                 entry.to, ": ", decision.reason);
      engine_.transition(*decision.target, {});
      entry.executed = true;
      no_solution_ = false;
      last_applied_ = state_;
      break;
    case DecisionKind::kPossible:
      entry.to = decision.target->name;
      if (policy_(*decision.target, decision.reason) && !engine_.busy()) {
        log().info("resilience", "POSSIBLE transition approved ", entry.from,
                   " -> ", entry.to, ": ", decision.reason);
        engine_.transition(*decision.target, {});
        entry.executed = true;
        last_applied_ = state_;
      } else {
        log().info("resilience", "POSSIBLE transition ", entry.from, " -> ",
                   entry.to, " not executed (manager declined)");
      }
      break;
  }
  history_.push_back(std::move(entry));
}

void ResilienceManager::on_trigger(const Trigger& trigger) {
  switch (trigger.kind) {
    case TriggerKind::kBandwidthDrop:
    case TriggerKind::kBandwidthRestored:
      state_.resources.bandwidth_bps = trigger.measured;
      break;
    case TriggerKind::kLinkSaturated:
    case TriggerKind::kLinkRelaxed:
      // The probe measured the service throughput (replies/s): that is the
      // workload intensity any replacement FTM must sustain.
      if (trigger.measured > 0.0) {
        state_.resources.request_rate = trigger.measured;
      }
      break;
    case TriggerKind::kCpuDrop:
    case TriggerKind::kCpuRestored:
      state_.resources.cpu_speed = trigger.measured;
      break;
    case TriggerKind::kTransientFaults:
      state_.fault_model.transient_value = true;
      break;
    case TriggerKind::kPermanentFaultSuspected:
      state_.fault_model.transient_value = true;
      state_.fault_model.permanent_value = true;
      break;
    case TriggerKind::kDivergence:
      // Replica divergence witnesses non-determinism the A parameters
      // did not declare — correct them.
      state_.app.deterministic = false;
      break;
  }
  react(strf("trigger:", to_string(trigger.kind)));
}

void ResilienceManager::notify_app_change(const ftm::AppSpec& app,
                                          const std::string& cause) {
  state_.app = app;
  react(strf("manager:app_change:", cause));
}

void ResilienceManager::notify_fault_model_change(const FaultModel& model,
                                                  const std::string& cause) {
  state_.fault_model = model;
  react(strf("manager:fault_model:", cause));
}

void ResilienceManager::notify_resources_change(const Resources& resources,
                                                const std::string& cause) {
  state_.resources = resources;
  react(strf("manager:resources:", cause));
}

}  // namespace rcs::core
