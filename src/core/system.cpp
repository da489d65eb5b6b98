#include "rcs/core/system.hpp"

#include <utility>

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"

namespace rcs::core {

ResilientSystem::ResilientSystem(SystemOptions options)
    : options_(options), sim_(options.seed), faults_(sim_) {
  ftm::register_components();
  app::register_components();
  app_spec_ = app::spec_for(options_.app_type);

  ensure(options_.replica_count >= 2,
         "ResilientSystem: at least two replicas are required");
  for (std::size_t i = 0; i < options_.replica_count; ++i) {
    replicas_.push_back(&sim_.add_host("replica" + std::to_string(i)));
  }
  client_host_ = &sim_.add_host("client");
  manager_host_ = &sim_.add_host("manager");
  repository_host_ = &sim_.add_host("repository");

  // Topology: replicas on a LAN; manager a little further; the repository
  // behind a slower link (package downloads are the dominant deployment
  // traffic).
  std::vector<HostId> replica_ids;
  for (auto* replica : replicas_) replica_ids.push_back(replica->id());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    for (std::size_t j = i + 1; j < replicas_.size(); ++j) {
      auto& link = sim_.network().link(replica_ids[i], replica_ids[j]);
      link.latency = options_.replica_latency;
      link.bandwidth_bps = options_.replica_bandwidth_bps;
    }
  }
  for (auto* replica : replicas_) {
    sim_.network().link(manager_host_->id(), replica->id()).latency =
        options_.control_latency;
    sim_.network().link(client_host_->id(), replica->id()).latency =
        options_.replica_latency;
  }
  sim_.network().link(manager_host_->id(), repository_host_->id()).latency =
      options_.repository_latency;

  for (auto* replica : replicas_) {
    agents_.push_back(std::make_unique<NodeAgent>(*replica, options_.cost));
    agents_.back()->report_events_to(manager_host_->id());
  }

  client_ = std::make_unique<ftm::Client>(*client_host_, replica_ids);

  repository_ = std::make_unique<Repository>(*repository_host_);
  engine_ = std::make_unique<AdaptationEngine>(
      *manager_host_, repository_host_->id(), replica_ids);
  engine_->set_fd_params(options_.fd_interval, options_.fd_timeout);

  monitoring_ = std::make_unique<MonitoringEngine>(*manager_host_, replica_ids,
                                                   options_.thresholds);

  FtarState initial;
  initial.fault_model = options_.initial_fault_model;
  initial.app = app_spec_;
  initial.resources.bandwidth_bps = options_.replica_bandwidth_bps;
  initial.resources.cpu_speed = replicas_.front()->capacity().cpu_speed;
  manager_ = std::make_unique<ResilienceManager>(*engine_, initial,
                                                 manager_host_);

  monitoring_->set_trigger_listener(
      [this](const Trigger& trigger) { manager_->on_trigger(trigger); });
  if (options_.start_monitoring) {
    monitoring_->start(options_.monitor_interval);
  }
}

sim::Host& ResilientSystem::replica(std::size_t index) {
  ensure(index < replicas_.size(), "ResilientSystem::replica: index out of range");
  return *replicas_[index];
}

NodeAgent& ResilientSystem::agent(std::size_t index) {
  ensure(index < agents_.size(), "ResilientSystem::agent: index out of range");
  return *agents_[index];
}

TransitionReport ResilientSystem::wait_for_report(
    std::optional<TransitionReport>& slot, sim::Duration budget) {
  const sim::Time deadline = sim_.now() + budget;
  while (!slot.has_value() && sim_.now() < deadline) {
    if (sim_.loop().empty()) break;
    sim_.loop().step();
  }
  ensure(slot.has_value(), "ResilientSystem: adaptation did not complete");
  return *slot;
}

TransitionReport ResilientSystem::deploy_and_wait(const ftm::FtmConfig& config) {
  std::optional<TransitionReport> report;
  engine_->deploy_initial(config, app_spec_,
                          [&report](const TransitionReport& r) { report = r; });
  return wait_for_report(report, 120 * sim::kSecond);
}

TransitionReport ResilientSystem::transition_and_wait(
    const ftm::FtmConfig& target) {
  std::optional<TransitionReport> report;
  engine_->transition(target,
                      [&report](const TransitionReport& r) { report = r; });
  return wait_for_report(report, 120 * sim::kSecond);
}

TransitionReport ResilientSystem::monolithic_and_wait(
    const ftm::FtmConfig& target) {
  std::optional<TransitionReport> report;
  engine_->transition_monolithic(
      target, [&report](const TransitionReport& r) { report = r; });
  return wait_for_report(report, 120 * sim::kSecond);
}

TransitionReport ResilientSystem::refresh_and_wait(const std::string& slot) {
  std::optional<TransitionReport> report;
  engine_->refresh_brick(slot,
                         [&report](const TransitionReport& r) { report = r; });
  return wait_for_report(report, 120 * sim::kSecond);
}

std::optional<Value> ResilientSystem::try_roundtrip(Value request,
                                                    sim::Duration budget) {
  const std::uint64_t call = ++roundtrip_calls_;
  roundtrip_reply_.reset();
  client_->send(std::move(request), [this, call](const Value& r) {
    if (call == roundtrip_calls_) roundtrip_reply_ = r;
  });
  const sim::Time deadline = sim_.now() + budget;
  while (!roundtrip_reply_ && sim_.now() < deadline) {
    if (sim_.loop().empty()) break;
    sim_.loop().step();
  }
  return std::exchange(roundtrip_reply_, std::nullopt);
}

Value ResilientSystem::roundtrip(Value request, sim::Duration budget) {
  auto reply = try_roundtrip(std::move(request), budget);
  ensure(reply.has_value(),
         "ResilientSystem::roundtrip: no reply within budget");
  return std::move(*reply);
}

}  // namespace rcs::core
