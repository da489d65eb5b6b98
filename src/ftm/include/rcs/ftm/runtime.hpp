// FTM runtime: the middleware instance on one replica host.
//
// Owns the FTM composite deployed on a host, routes the host's network
// messages into the component assembly, exposes the quiescence gate used by
// the adaptation engine (§5.3 "consistency of request processing"), and
// persists the active configuration to stable storage so a restarted replica
// rejoins in the configuration its peer completed (§5.3 "recovery of
// adaptation").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rcs/component/composite.hpp"
#include "rcs/component/package.hpp"
#include "rcs/ftm/app_spec.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/failure_detector.hpp"
#include "rcs/ftm/protocol.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/script/interpreter.hpp"
#include "rcs/sim/host.hpp"

namespace rcs::ftm {

struct DeployParams {
  FtmConfig config;
  Role role{Role::kPrimary};
  /// The other members of the replica group (empty for single-host FTMs).
  std::vector<std::int64_t> peers;
  /// Host id of the group's current master.
  std::int64_t master{-1};
  AppSpec app;
  sim::Duration fd_interval{50 * sim::kMillisecond};
  sim::Duration fd_timeout{200 * sim::kMillisecond};

  [[nodiscard]] Value to_value() const;
  [[nodiscard]] static DeployParams from_value(const Value& value);
};

class FtmRuntime {
 public:
  /// Stable-storage key under which the active configuration is logged.
  static constexpr const char* kStableConfigKey = "ftm.active_config";

  FtmRuntime(sim::Host& host, comp::HostLibrary& library,
             const comp::ComponentRegistry* registry = nullptr);
  ~FtmRuntime();

  FtmRuntime(const FtmRuntime&) = delete;
  FtmRuntime& operator=(const FtmRuntime&) = delete;

  /// Deploy `params` from scratch by generating and executing the deployment
  /// script. Persists the configuration to stable storage. Returns the
  /// number of script operations executed (for cost accounting).
  script::ExecutionStats deploy(const DeployParams& params);

  /// Tear the composite down (crash cleanup / monolithic replacement).
  void teardown();

  [[nodiscard]] bool deployed() const { return composite_ != nullptr; }
  [[nodiscard]] comp::Composite& composite();
  [[nodiscard]] ProtocolKernel& kernel();
  [[nodiscard]] FailureDetectorComponent& detector();
  [[nodiscard]] const DeployParams& params() const { return params_; }
  [[nodiscard]] sim::Host& host() { return host_; }
  [[nodiscard]] comp::HostLibrary& library() { return library_; }
  [[nodiscard]] const comp::ComponentRegistry& registry() const;

  /// Execute a (transition) script against the composite and update the
  /// persisted configuration to `target`.
  script::ExecutionStats run_transition(const std::string& source,
                                        const FtmConfig& target);

  // --- Quiescence (adaptation engine) --------------------------------------
  /// Block new client requests (buffering them) and call `on_drained` once
  /// all in-flight requests have completed. Fires immediately if idle.
  void quiesce(std::function<void()> on_drained);
  /// Reopen the gate and replay buffered requests.
  void resume();

  /// Ask the kernel to rejoin the duplex after a restart (sends ctrl join).
  void request_rejoin();

  // --- Stable-storage persistence ------------------------------------------
  void persist(const DeployParams& params);
  [[nodiscard]] static std::optional<DeployParams> load_persisted(
      sim::Host& host);

 private:
  void register_handlers();

  sim::Host& host_;
  comp::HostLibrary& library_;
  const comp::ComponentRegistry* registry_;
  std::unique_ptr<comp::Composite> composite_;
  DeployParams params_;
  /// kernel()'s cache: the "protocol" child it last resolved, and its type.
  ProtocolKernel* kernel_{nullptr};
  const comp::Component* kernel_component_{nullptr};
  const comp::ComponentTypeInfo* kernel_type_{nullptr};
};

}  // namespace rcs::ftm
