// Resilience manager (§3.1's Resilience Management Service + the decision
// logic of §5.4).
//
// Maintains the current (FT, A, R) state, updates it from monitoring
// triggers and system-manager notifications, and keeps the deployed FTM
// consistent with it:
//  - if the current FTM became INVALID, the transition to the best valid
//    FTM is MANDATORY and executes automatically;
//  - if the current FTM is still valid but another valid FTM is
//    meaningfully cheaper under the new resources, the transition is
//    POSSIBLE and executes only with system-manager approval (the paper's
//    man-in-the-loop, which also breaks trigger oscillation: the reverse of
//    a mandatory transition is always a possible one);
//  - if NO FTM is valid, the system records the "no generic solution" state
//    (Fig. 8) and raises an alert.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rcs/core/adaptation_engine.hpp"
#include "rcs/core/capability.hpp"
#include "rcs/core/monitoring.hpp"

namespace rcs::core {

enum class DecisionKind {
  kNoChange,    // current FTM remains the best valid choice
  kMandatory,   // current FTM invalid; transition required
  kPossible,    // better FTM available; manager may approve
  kIntraFtm,    // same FTM, configuration context updated (Fig. 8 dotted)
  kNoSolution,  // no FTM covers the current (FT, A, R)
};

[[nodiscard]] const char* to_string(DecisionKind kind);

struct Decision {
  DecisionKind kind{DecisionKind::kNoChange};
  std::optional<ftm::FtmConfig> target;
  std::string reason;
};

class ResilienceManager {
 public:
  /// The human system manager: approves or refuses possible transitions.
  using ApprovalPolicy =
      std::function<bool(const ftm::FtmConfig& target, const std::string& reason)>;

  struct HistoryEntry {
    sim::Time at{0};
    std::string cause;
    DecisionKind decision{DecisionKind::kNoChange};
    std::string from;
    std::string to;
    bool executed{false};
  };

  /// `scheduler` (optional): a host whose timers re-arm deferred reactions
  /// — a mandatory transition that arrives while the engine is busy is
  /// retried once the engine frees up, instead of waiting for the next
  /// trigger.
  ResilienceManager(AdaptationEngine& engine, FtarState initial,
                    sim::Host* scheduler = nullptr);

  /// Default policy refuses possible transitions (pure man-in-the-loop).
  void set_approval_policy(ApprovalPolicy policy) { policy_ = std::move(policy); }

  // --- Inputs ----------------------------------------------------------
  /// Monitoring trigger (probes, Fig. 8's "detected by probes").
  void on_trigger(const Trigger& trigger);
  /// System-manager notifications (Fig. 8's "system manager input").
  void notify_app_change(const ftm::AppSpec& app, const std::string& cause);
  void notify_fault_model_change(const FaultModel& model, const std::string& cause);
  void notify_resources_change(const Resources& resources, const std::string& cause);

  // --- Introspection -----------------------------------------------------
  [[nodiscard]] const FtarState& state() const { return state_; }
  [[nodiscard]] const std::vector<HistoryEntry>& history() const {
    return history_;
  }
  [[nodiscard]] bool no_solution() const { return no_solution_; }

  /// Pure decision logic, exposed for tests and the graph benchmark.
  [[nodiscard]] Decision evaluate(const FtarState& state) const;
  /// Cheapest valid+viable candidate under `state` (A/R-driven selection).
  [[nodiscard]] std::optional<ftm::FtmConfig> select_best(
      const FtarState& state) const;
  /// FT-driven selection: when the fault model strengthens, the paper
  /// *composes* the running FTM with the needed mechanism (LFR -> LFR⊕TR)
  /// rather than switching strategies — prefer the candidate with the
  /// smallest differential distance from the current FTM, then the tightest
  /// coverage (no over-protection), then the lowest resource cost.
  [[nodiscard]] std::optional<ftm::FtmConfig> select_minimal_change(
      const FtarState& state) const;

 private:
  void react(const std::string& cause);

  AdaptationEngine& engine_;
  sim::Host* scheduler_{nullptr};
  bool recheck_armed_{false};
  FtarState state_;
  FtarState last_applied_;
  ApprovalPolicy policy_;
  bool no_solution_{false};
  std::vector<HistoryEntry> history_;
};

}  // namespace rcs::core
