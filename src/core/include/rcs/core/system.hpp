// ResilientSystem: the whole architecture of §3.1 in one object.
//
//   hosts:  replica0, replica1  — run the FTM composites (node agents)
//           client              — issues requests with retry/failover
//           manager             — adaptation engine + monitoring engine +
//                                 resilience manager
//           repository          — FTM & adaptation repository
//
// This is the top-level convenience API a downstream user starts from (see
// examples/quickstart.cpp): construct, deploy an initial FTM, drive virtual
// time, inject changes and faults, and observe transitions.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "rcs/app/apps.hpp"
#include "rcs/core/adaptation_engine.hpp"
#include "rcs/core/monitoring.hpp"
#include "rcs/core/node_agent.hpp"
#include "rcs/core/repository.hpp"
#include "rcs/core/resilience_manager.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/ftm/registration.hpp"
#include "rcs/sim/fault_injector.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::core {

struct SystemOptions {
  std::uint64_t seed{1};
  /// Size of the replica group (>= 2 for duplex FTMs; the paper's testbed
  /// is 2, §3.2.1's "multiple Backups or Followers" any N).
  std::size_t replica_count{2};
  /// Application under protection.
  std::string app_type{"app.kvstore"};
  /// Initial fault model the deployment must cover.
  FaultModel initial_fault_model{true, false, false};
  /// Virtual-time cost model for reconfiguration steps (Table 3 / Fig. 9).
  CostModel cost{};
  MonitoringThresholds thresholds{};
  /// Replica-link parameters.
  sim::Duration replica_latency{1 * sim::kMillisecond};
  double replica_bandwidth_bps{12'500'000.0};
  /// Manager/repository links (package downloads pay this).
  sim::Duration control_latency{5 * sim::kMillisecond};
  sim::Duration repository_latency{40 * sim::kMillisecond};
  bool start_monitoring{true};
  sim::Duration monitor_interval{500 * sim::kMillisecond};
  /// Failure-detector parameters applied to every deployment.
  sim::Duration fd_interval{50 * sim::kMillisecond};
  sim::Duration fd_timeout{200 * sim::kMillisecond};
};

class ResilientSystem {
 public:
  explicit ResilientSystem(SystemOptions options = {});

  // --- Accessors ----------------------------------------------------------
  sim::Simulation& sim() { return sim_; }
  sim::Host& replica(std::size_t index);
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  sim::Host& client_host() { return *client_host_; }
  sim::Host& manager_host() { return *manager_host_; }
  NodeAgent& agent(std::size_t index);
  ftm::Client& client() { return *client_; }
  AdaptationEngine& engine() { return *engine_; }
  MonitoringEngine& monitoring() { return *monitoring_; }
  ResilienceManager& manager() { return *manager_; }
  Repository& repository() { return *repository_; }
  sim::FaultInjector& faults() { return faults_; }
  [[nodiscard]] const ftm::AppSpec& app_spec() const { return app_spec_; }

  // --- Convenience driving --------------------------------------------------
  /// Deploy `config` from scratch and run until the deployment completed.
  TransitionReport deploy_and_wait(const ftm::FtmConfig& config);
  /// Differential transition; runs until the engine reports completion.
  TransitionReport transition_and_wait(const ftm::FtmConfig& target);
  /// Monolithic-replacement baseline; runs until completion.
  TransitionReport monolithic_and_wait(const ftm::FtmConfig& target);
  /// In-place update of one brick of the current FTM (§3.2.1's FTM update).
  TransitionReport refresh_and_wait(const std::string& slot);

  /// Issue one request and run until its reply; nullopt if `budget`
  /// elapses (or the loop drains) first.
  std::optional<Value> try_roundtrip(Value request,
                                     sim::Duration budget = 10 * sim::kSecond);
  /// try_roundtrip that throws when no reply arrives.
  Value roundtrip(Value request, sim::Duration budget = 10 * sim::kSecond);

 private:
  TransitionReport wait_for_report(std::optional<TransitionReport>& slot,
                                   sim::Duration budget);

  SystemOptions options_;
  sim::Simulation sim_;
  std::vector<sim::Host*> replicas_;
  sim::Host* client_host_;
  sim::Host* manager_host_;
  sim::Host* repository_host_;
  sim::FaultInjector faults_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::unique_ptr<ftm::Client> client_;
  std::unique_ptr<Repository> repository_;
  std::unique_ptr<AdaptationEngine> engine_;
  std::unique_ptr<MonitoringEngine> monitoring_;
  std::unique_ptr<ResilienceManager> manager_;
  ftm::AppSpec app_spec_;
  /// try_roundtrip's reply slot, tagged with the call it belongs to, so a
  /// reply that arrives after its call gave up is dropped.
  std::optional<Value> roundtrip_reply_;
  std::uint64_t roundtrip_calls_{0};
};

}  // namespace rcs::core
