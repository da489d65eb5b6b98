#include "rcs/core/adaptation_engine.hpp"

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/runtime.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::core {

namespace {
/// How long a transition waits for replica acks before declaring the
/// missing ones unresponsive.
constexpr sim::Duration kAckTimeout = 20 * sim::kSecond;

/// What a served package costs a transition: its wire size and the number
/// of components it ships, read from the blob's header.
void note_package(TransitionReport& report, const Value& package) {
  report.package_bytes = package.encoded_size();
  report.components_shipped =
      static_cast<int>(comp::ComponentPackage::count_entries(
          package.at("components").as_bytes()));
}
}  // namespace

sim::Duration TransitionReport::mean_replica_total() const {
  sim::Duration sum = 0;
  int n = 0;
  for (const auto& outcome : replicas) {
    if (!outcome.responded || !outcome.ok) continue;
    sum += outcome.timings.total();
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

AdaptationEngine::AdaptationEngine(sim::Host& manager, HostId repository,
                                   std::vector<HostId> replicas)
    : manager_(manager), repository_(repository), replicas_(std::move(replicas)) {
  ensure(!replicas_.empty(), "AdaptationEngine: needs at least one replica");
  manager_.register_handler("adapt.ack", [this](const sim::Message& m) {
    handle_ack(m.payload);
  });
  manager_.register_handler("repo.package", [this](const sim::Message& m) {
    handle_package(m.payload);
  });
}

void AdaptationEngine::handle_package(const Value& response) {
  const auto txn = static_cast<std::uint64_t>(response.at("txn").as_int());
  const auto it = fetches_.find(txn);
  if (it == fetches_.end()) return;
  if (!response.at("ok").as_bool() && it->second.attempts < kMaxFetchAttempts) {
    // Transient repository fault: retry the identical request after a linear
    // backoff. The entry stays in fetches_ so busy() keeps excluding a
    // concurrent adaptation while the retry is in flight.
    const int attempt = ++it->second.attempts;
    log().info("engine", "repository fetch refused (",
               response.at("error").as_string(), "), retry ", attempt, "/",
               kMaxFetchAttempts);
    manager_.schedule_after(
        attempt * kFetchRetryBackoff,
        [this, txn] {
          const auto retry = fetches_.find(txn);
          if (retry == fetches_.end()) return;
          manager_.send(repository_, "repo.fetch", Value(retry->second.request));
        },
        "engine.fetch_retry");
    return;
  }
  auto on_package = std::move(it->second.on_package);
  fetches_.erase(it);
  on_package(response);
}

void AdaptationEngine::fetch_package(
    const std::string& kind, const ftm::FtmConfig& target,
    std::function<void(const Value& package)> on_package) {
  const auto txn = next_txn_++;
  Value request = Value::map();
  request.set("txn", static_cast<std::int64_t>(txn))
      .set("kind", kind)
      .set("to", target.to_value())
      .set("app", app_.to_value());
  if (kind == "transition") request.set("from", current_.to_value());
  fetches_[txn] = PendingFetch{request, std::move(on_package)};
  manager_.send(repository_, "repo.fetch", std::move(request));
}

std::uint64_t AdaptationEngine::begin_txn(const std::string& kind,
                                          const std::string& from,
                                          const std::string& to,
                                          std::size_t expected_acks,
                                          Callback callback) {
  const auto txn = next_txn_++;
  PendingTxn pending;
  pending.report.id = TransitionId{txn};
  pending.report.kind = kind;
  pending.report.from = from;
  pending.report.to = to;
  pending.callback = std::move(callback);
  pending.started = manager_.sim().now();
  pending.expected_acks = expected_acks;
  pending.timeout = manager_.schedule_after(
      kAckTimeout, [this, txn] { finish(txn); }, "engine.ack_timeout");
  pending_.emplace(txn, std::move(pending));
  return txn;
}

void AdaptationEngine::dispatch(const std::string& verb, std::uint64_t txn,
                                Value message,
                                const std::vector<HostId>& targets) {
  auto& pending = pending_.at(txn);
  for (const auto& target : targets) {
    ReplicaOutcome outcome;
    outcome.host = target;
    pending.report.replicas.push_back(outcome);

    Value payload = message;  // per-target copy
    payload.set("txn", static_cast<std::int64_t>(txn));
    if (verb == "adapt.apply" && sabotage_ && *sabotage_ == target) {
      payload.set("sabotage", true);
    }
    manager_.send(target, verb, std::move(payload));
  }
  if (verb == "adapt.apply" && sabotage_) sabotage_.reset();
}

void AdaptationEngine::deploy_initial(const ftm::FtmConfig& config,
                                      const ftm::AppSpec& app,
                                      Callback callback) {
  ensure(!busy(), "AdaptationEngine: another adaptation is in progress");
  app_ = app;
  fetch_package("full", config, [this, config, callback = std::move(callback)](
                                    const Value& response) mutable {
    if (!response.at("ok").as_bool()) {
      log().error("engine", "repository refused full package: ",
                  response.at("error").as_string());
      return;
    }
    const Value& package = response.at("package");
    const auto targets =
        config.duplex ? replicas_
                      : std::vector<HostId>{replicas_.front()};
    const auto txn =
        begin_txn("deploy", "", config.name, targets.size(), std::move(callback));
    note_package(pending_.at(txn).report, package);

    for (std::size_t i = 0; i < targets.size(); ++i) {
      ftm::DeployParams params;
      params.config = config;
      params.role = i == 0 ? ftm::Role::kPrimary : ftm::Role::kBackup;
      if (config.duplex) {
        for (std::size_t j = 0; j < targets.size(); ++j) {
          if (j != i) {
            params.peers.push_back(
                static_cast<std::int64_t>(targets[j].value()));
          }
        }
      }
      params.master = static_cast<std::int64_t>(targets.front().value());
      params.app = app_;
      params.fd_interval = fd_interval_;
      params.fd_timeout = fd_timeout_;
      Value message = Value::map();
      message.set("package", package).set("params", params.to_value());
      dispatch("adapt.deploy", txn, std::move(message), {targets[i]});
    }
    current_ = config;
  });
}

void AdaptationEngine::transition(const ftm::FtmConfig& target,
                                  Callback callback) {
  ensure(!busy(), "AdaptationEngine: another adaptation is in progress");
  ensure(!current_.name.empty(), "AdaptationEngine: nothing deployed yet");
  fetch_package(
      "transition", target,
      [this, target, callback = std::move(callback)](const Value& response) mutable {
        if (!response.at("ok").as_bool()) {
          log().error("engine", "repository refused transition package: ",
                      response.at("error").as_string());
          return;
        }
        const Value& package = response.at("package");
        const auto targets = current_.duplex && target.duplex
                                 ? replicas_
                                 : std::vector<HostId>{replicas_.front()};
        const auto txn = begin_txn("transition", current_.name, target.name,
                                   targets.size(), std::move(callback));
        note_package(pending_.at(txn).report, package);

        Value message = Value::map();
        message.set("package", package).set("target", target.to_value());
        dispatch("adapt.apply", txn, std::move(message), targets);
        current_ = target;
      });
}

void AdaptationEngine::transition_monolithic(const ftm::FtmConfig& target,
                                             Callback callback) {
  ensure(!busy(), "AdaptationEngine: another adaptation is in progress");
  ensure(!current_.name.empty(), "AdaptationEngine: nothing deployed yet");
  fetch_package(
      "full", target,
      [this, target, callback = std::move(callback)](const Value& response) mutable {
        if (!response.at("ok").as_bool()) {
          log().error("engine", "repository refused full package: ",
                      response.at("error").as_string());
          return;
        }
        const Value& package = response.at("package");
        const auto targets = target.duplex
                                 ? replicas_
                                 : std::vector<HostId>{replicas_.front()};
        const auto txn = begin_txn("monolithic", current_.name, target.name,
                                   targets.size(), std::move(callback));
        note_package(pending_.at(txn).report, package);

        for (std::size_t i = 0; i < targets.size(); ++i) {
          ftm::DeployParams params;
          params.config = target;
          params.role = i == 0 ? ftm::Role::kPrimary : ftm::Role::kBackup;
          if (target.duplex) {
            for (std::size_t j = 0; j < targets.size(); ++j) {
              if (j != i) {
                params.peers.push_back(
                    static_cast<std::int64_t>(targets[j].value()));
              }
            }
          }
          params.master = static_cast<std::int64_t>(targets.front().value());
          params.app = app_;
          params.fd_interval = fd_interval_;
          params.fd_timeout = fd_timeout_;
          Value message = Value::map();
          message.set("package", package).set("params", params.to_value());
          dispatch("adapt.monolithic", txn, std::move(message), {targets[i]});
        }
        current_ = target;
      });
}

void AdaptationEngine::refresh_brick(const std::string& slot,
                                     Callback callback) {
  ensure(!busy(), "AdaptationEngine: another adaptation is in progress");
  ensure(!current_.name.empty(), "AdaptationEngine: nothing deployed yet");
  const auto fetch_txn = next_txn_++;
  auto on_package = [this, slot, callback = std::move(callback)](
                        const Value& response) mutable {
    if (!response.at("ok").as_bool()) {
      log().error("engine", "repository refused refresh package: ",
                  response.at("error").as_string());
      return;
    }
    const Value& package = response.at("package");
    const auto targets = current_.duplex
                             ? replicas_
                             : std::vector<HostId>{replicas_.front()};
    const auto txn = begin_txn("refresh", current_.name, current_.name,
                               targets.size(), std::move(callback));
    note_package(pending_.at(txn).report, package);
    Value message = Value::map();
    message.set("package", package).set("target", current_.to_value());
    dispatch("adapt.apply", txn, std::move(message), targets);
  };
  Value request = Value::map();
  request.set("txn", static_cast<std::int64_t>(fetch_txn))
      .set("kind", "refresh")
      .set("slot", slot)
      .set("to", current_.to_value())
      .set("app", app_.to_value());
  fetches_[fetch_txn] = PendingFetch{request, std::move(on_package)};
  manager_.send(repository_, "repo.fetch", std::move(request));
}

void AdaptationEngine::intra_update(const Value& context, Callback callback) {
  ensure(!current_.name.empty(), "AdaptationEngine: nothing deployed yet");
  const auto targets = current_.duplex
                           ? replicas_
                           : std::vector<HostId>{replicas_.front()};
  const auto txn = begin_txn("intra", current_.name, current_.name,
                             targets.size(), std::move(callback));
  Value message = Value::map();
  message.set("context", context);
  dispatch("adapt.intra", txn, std::move(message), targets);
}

void AdaptationEngine::handle_ack(const Value& payload) {
  const auto txn = static_cast<std::uint64_t>(payload.at("txn").as_int());
  const auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  PendingTxn& pending = it->second;

  const auto host = static_cast<std::uint32_t>(payload.at("host").as_int());
  for (auto& outcome : pending.report.replicas) {
    if (outcome.host.value() != host) continue;
    outcome.responded = true;
    outcome.ok = payload.at("ok").as_bool();
    outcome.error = payload.get_or("error", Value("")).as_string();
    outcome.timings =
        NodeAgent::StepTimings::from_value(payload.at("timings"));
  }

  std::size_t responded = 0;
  for (const auto& outcome : pending.report.replicas) {
    if (outcome.responded) ++responded;
  }
  if (responded >= pending.expected_acks) finish(txn);
}

void AdaptationEngine::finish(std::uint64_t txn) {
  const auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  PendingTxn pending = std::move(it->second);
  pending_.erase(it);
  manager_.cancel(pending.timeout);

  pending.report.engine_total = manager_.sim().now() - pending.started;
  // Whole-transition span on the manager host; the per-step spans the node
  // agents record nest under it (same trace id = txn).
  obs::Tracer& tracer = manager_.sim().tracer();
  if (tracer.enabled()) {
    tracer.span(manager_.id().value(),
                tracer.intern(strf("adapt.", pending.report.kind)), txn,
                pending.started, manager_.sim().now());
  }
  pending.report.ok = true;
  for (const auto& outcome : pending.report.replicas) {
    if (!outcome.responded || !outcome.ok) pending.report.ok = false;
  }
  log().info("engine", pending.report.kind, " ", pending.report.from,
             pending.report.from.empty() ? "" : " -> ", pending.report.to,
             pending.report.ok ? " OK" : " DEGRADED", " in ",
             sim::to_ms(pending.report.engine_total), "ms");
  if (pending.callback) pending.callback(pending.report);
}

}  // namespace rcs::core
