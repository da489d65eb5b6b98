// Adaptation engine (paper Fig. 7): orchestrates on-line FTM changes.
//
// Runs on the manager host. For a transition it:
//   1. fetches the transition package (new bricks + RScript) from the
//      repository over the network,
//   2. ships it to every replica's node agent ("adapt.apply"),
//   3. collects per-replica acks with step timings, watching for the §5.3
//      failure mode: a replica whose reconfiguration failed kills itself;
//      the survivor completes and serves master-alone.
// Full deployments (Table 3's first row) and the monolithic-replacement
// baseline (§6.2) follow the same choreography with different verbs.
//
// All calls are asynchronous: completion is reported through a callback with
// a TransitionReport carrying the measurements the benchmarks print.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rcs/core/change_model.hpp"
#include "rcs/core/node_agent.hpp"
#include "rcs/core/repository.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::core {

struct ReplicaOutcome {
  HostId host{};
  bool ok{false};
  bool responded{false};
  std::string error;
  NodeAgent::StepTimings timings;
};

struct TransitionReport {
  TransitionId id{};
  std::string kind;  // "deploy", "transition", "monolithic"
  std::string from;  // empty for deployments
  std::string to;
  bool ok{false};
  std::vector<ReplicaOutcome> replicas;
  /// Engine-side wall time: initiation to completion (virtual us).
  sim::Duration engine_total{0};
  /// Wire size of the shipped package.
  std::size_t package_bytes{0};
  int components_shipped{0};

  /// Per-replica reconfiguration time, averaged over responding replicas
  /// (the paper's Table 3 reports the per-replica time, transitions running
  /// in parallel on both).
  [[nodiscard]] sim::Duration mean_replica_total() const;
};

class AdaptationEngine {
 public:
  using Callback = std::function<void(const TransitionReport&)>;

  AdaptationEngine(sim::Host& manager, HostId repository,
                   std::vector<HostId> replicas);

  /// Deploy `config` from scratch on the replicas (primary on the first,
  /// backup on the second for duplex FTMs; only the first otherwise).
  void deploy_initial(const ftm::FtmConfig& config, const ftm::AppSpec& app,
                      Callback callback);

  /// Differential transition from the currently deployed FTM to `target`.
  void transition(const ftm::FtmConfig& target, Callback callback);

  /// Baseline: replace the whole FTM (teardown + full redeploy + state
  /// transfer) instead of swapping bricks.
  void transition_monolithic(const ftm::FtmConfig& target, Callback callback);

  /// Ship a fresh build of one brick of the CURRENT FTM and swap it in
  /// place (the paper's FTM *update*: "changing the acceptance test" /
  /// "replacing the decision algorithm", §3.2.1). `slot` is "syncBefore",
  /// "proceed" or "syncAfter".
  void refresh_brick(const std::string& slot, Callback callback);

  /// Intra-FTM transition (Fig. 8's dotted edges): the FTM stays, but its
  /// configuration context — the (FT, A, R) values it currently assumes —
  /// is updated on every replica through a one-statement reconfiguration
  /// script (`set("protocol", "context", ctx)`).
  void intra_update(const Value& context, Callback callback);

  /// Failure-detector parameters applied to every deployment.
  void set_fd_params(sim::Duration interval, sim::Duration timeout) {
    fd_interval_ = interval;
    fd_timeout_ = timeout;
  }

  [[nodiscard]] const ftm::FtmConfig& current() const { return current_; }
  [[nodiscard]] const ftm::AppSpec& app() const { return app_; }
  /// An adaptation is in flight: either replicas are reconfiguring or the
  /// package is still being fetched from the repository (both windows must
  /// exclude a second concurrent adaptation).
  [[nodiscard]] bool busy() const {
    return !pending_.empty() || !fetches_.empty();
  }
  [[nodiscard]] const std::vector<HostId>& replicas() const { return replicas_; }

  /// §5.3 fault-injection hook: the next "adapt.apply" sent to `host`
  /// carries a sabotage flag making its reconfiguration fail (and the
  /// replica kill itself).
  void inject_script_failure_on(HostId host) { sabotage_ = host; }

 private:
  struct PendingTxn {
    TransitionReport report;
    Callback callback;
    sim::Time started{0};
    std::size_t expected_acks{0};
    TimerId timeout{};
  };

  /// An outstanding repository fetch. The original request is kept so a
  /// refused fetch (transient repository fault) can be retried verbatim,
  /// with bounded attempts and a linear backoff.
  struct PendingFetch {
    Value request;
    std::function<void(const Value& package)> on_package;
    int attempts{1};
  };
  static constexpr int kMaxFetchAttempts = 4;
  static constexpr sim::Duration kFetchRetryBackoff = 150 * sim::kMillisecond;

  void fetch_package(const std::string& kind, const ftm::FtmConfig& target,
                     std::function<void(const Value& package)> on_package);
  void handle_package(const Value& response);
  std::uint64_t begin_txn(const std::string& kind, const std::string& from,
                          const std::string& to, std::size_t expected_acks,
                          Callback callback);
  void dispatch(const std::string& verb, std::uint64_t txn, Value message,
                const std::vector<HostId>& targets);
  void handle_ack(const Value& payload);
  void finish(std::uint64_t txn);

  sim::Host& manager_;
  HostId repository_;
  std::vector<HostId> replicas_;
  ftm::FtmConfig current_{};
  ftm::AppSpec app_{};
  sim::Duration fd_interval_{50 * sim::kMillisecond};
  sim::Duration fd_timeout_{200 * sim::kMillisecond};
  std::uint64_t next_txn_{1};
  std::map<std::uint64_t, PendingTxn> pending_;
  std::map<std::uint64_t, PendingFetch> fetches_;
  std::optional<HostId> sabotage_;
};

}  // namespace rcs::core
