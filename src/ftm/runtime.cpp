#include "rcs/ftm/runtime.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/script/parser.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

Value DeployParams::to_value() const {
  Value v = Value::map();
  Value peer_list = Value::list();
  for (const auto p : peers) peer_list.push_back(p);
  v.set("config", config.to_value())
      .set("role", to_string(role))
      .set("peers", std::move(peer_list))
      .set("master", master)
      .set("app", app.to_value())
      .set("fd_interval", static_cast<std::int64_t>(fd_interval))
      .set("fd_timeout", static_cast<std::int64_t>(fd_timeout));
  return v;
}

DeployParams DeployParams::from_value(const Value& value) {
  DeployParams params;
  params.config = FtmConfig::from_value(value.at("config"));
  params.role = role_from_string(value.at("role").as_string());
  for (const auto& entry : value.at("peers").as_list()) {
    params.peers.push_back(entry.as_int());
  }
  params.master = value.at("master").as_int();
  params.app = AppSpec::from_value(value.at("app"));
  params.fd_interval = value.at("fd_interval").as_int();
  params.fd_timeout = value.at("fd_timeout").as_int();
  return params;
}

FtmRuntime::FtmRuntime(sim::Host& host, comp::HostLibrary& library,
                       const comp::ComponentRegistry* registry)
    : host_(host), library_(library), registry_(registry) {
  host_.on_crash([this] {
    // Volatile state dies with the host; stable storage keeps the config.
    composite_.reset();
  });
}

FtmRuntime::~FtmRuntime() = default;

const comp::ComponentRegistry& FtmRuntime::registry() const {
  return registry_ ? *registry_ : comp::ComponentRegistry::instance();
}

comp::Composite& FtmRuntime::composite() {
  ensure(composite_ != nullptr, "FtmRuntime: no FTM deployed");
  return *composite_;
}

ProtocolKernel& FtmRuntime::kernel() {
  comp::Component& protocol = composite().child("protocol");
  // Resolve the child once per instance: a deployment or a script that
  // replaced it shows as a different component (or type) under the name.
  if (&protocol != kernel_component_ || &protocol.info() != kernel_type_) {
    auto* kernel = dynamic_cast<ProtocolKernel*>(&protocol);
    ensure(kernel != nullptr, "FtmRuntime: protocol component has wrong type");
    kernel_ = kernel;
    kernel_component_ = &protocol;
    kernel_type_ = &protocol.info();
  }
  return *kernel_;
}

FailureDetectorComponent& FtmRuntime::detector() {
  auto* detector =
      dynamic_cast<FailureDetectorComponent*>(&composite().child("detector"));
  ensure(detector != nullptr, "FtmRuntime: detector component has wrong type");
  return *detector;
}

script::ExecutionStats FtmRuntime::deploy(const DeployParams& params) {
  ensure(composite_ == nullptr,
         "FtmRuntime::deploy: an FTM is already deployed (teardown first)");
  params_ = params;
  composite_ = std::make_unique<comp::Composite>(
      strf("ftm@", host_.name()),
      comp::CompositeEnv{&host_, &library_, registry_});

  script::ExecutionStats stats;
  try {
    const ScriptBuilder builder(registry());
    const std::string source =
        builder.deployment_script(params.config, params.app);
    Value peer_list = Value::list();
    for (const auto p : params.peers) peer_list.push_back(p);
    Value bindings = Value::map();
    bindings.set("role", to_string(params.role))
        .set("peers", std::move(peer_list))
        .set("master", params.master);
    stats = script::Interpreter::run_source(source, *composite_, bindings);

    composite_->set_property("detector", "interval_us",
                             Value(static_cast<std::int64_t>(params.fd_interval)));
    composite_->set_property("detector", "timeout_us",
                             Value(static_cast<std::int64_t>(params.fd_timeout)));
  } catch (...) {
    // The deployment script rolled back (e.g. a required package is not
    // installed on this host). `deployed()` must not report a half-built
    // FTM: drop the empty composite so callers see "nothing deployed"
    // instead of a composite with no protocol that trips every later
    // kernel() probe.
    composite_.reset();
    throw;
  }

  register_handlers();
  persist(params);
  log().info("ftm", host_.name(), ": deployed ", params.config.name, " as ",
             to_string(params.role), " (", stats.ops, " ops)");
  return stats;
}

void FtmRuntime::teardown() {
  composite_.reset();
  host_.unregister_handler(msg::kRequest);
  host_.unregister_handler(msg::kReplica);
  host_.unregister_handler(msg::kHeartbeat);
}

void FtmRuntime::register_handlers() {
  host_.register_handler(msg::kRequest, [this](const sim::Message& message) {
    if (composite_ == nullptr) return;
    kernel().deliver_client(message.payload);
  });
  host_.register_handler(msg::kReplica, [this](const sim::Message& message) {
    if (composite_ == nullptr) return;
    // The sender travels beside the shared payload: the kernel needs it for
    // per-peer ack accounting and directed responses.
    kernel().deliver_peer(message.payload,
                          static_cast<std::int64_t>(message.from.value()));
  });
  host_.register_handler(msg::kHeartbeat, [this](const sim::Message& message) {
    if (composite_ == nullptr) return;
    detector().on_heartbeat(message.payload.value());
  });
}

script::ExecutionStats FtmRuntime::run_transition(const std::string& source,
                                                  const FtmConfig& target) {
  if (host_.sim().fsim().enabled()) {
    // fsim "script.rollback": the reconfiguration fails at its very end, as
    // if a final validity check refused the new configuration. Appending a
    // failing `require` runs the WHOLE script first, so the rollback journal
    // is fully populated and the session unwinds every statement before the
    // ScriptException escalates to the node agent (ack(false) + fail-silence,
    // §5.3 — the survivor completes and serves master-alone).
    const fsim::Site site{"transition", source.size(),
                          static_cast<std::int64_t>(host_.sim().now())};
    if (host_.sim().fsim().should_fail(fsim::Point::kScriptRollback, site)) {
      // Scripts are `script name { ... }` blocks: the failing require must
      // land inside the body (before the last '}'), as the final statement.
      std::string failing = source;
      const auto brace = failing.rfind('}');
      if (brace == std::string::npos) {
        failing += "\nrequire false;";
      } else {
        failing.insert(brace, "\nrequire false;\n");
      }
      return script::Interpreter::run_source(failing, composite());
    }
  }
  const auto stats = script::Interpreter::run_source(source, composite());
  params_.config = target;
  persist(params_);
  return stats;
}

void FtmRuntime::quiesce(std::function<void()> on_drained) {
  kernel().set_quiesce_listener(std::move(on_drained));
  kernel().quiesce();
}

void FtmRuntime::resume() {
  kernel().set_quiesce_listener({});
  kernel().unblock();
}

void FtmRuntime::request_rejoin() { kernel().join(); }

void FtmRuntime::persist(const DeployParams& params) {
  // The *role* persisted is the deployment role; a replica that crashed and
  // restarts should come back as backup and rejoin (its old peer is now
  // master-alone), which the recovery layer decides — we store the current
  // kernel role for its inspection.
  DeployParams snapshot = params;
  if (composite_ != nullptr && composite_->has("protocol")) {
    snapshot.role = kernel().role();
  }
  host_.stable().put(kStableConfigKey, snapshot.to_value());
}

std::optional<DeployParams> FtmRuntime::load_persisted(sim::Host& host) {
  const Value stored = host.stable().get(kStableConfigKey);
  if (stored.is_null()) return std::nullopt;
  return DeployParams::from_value(stored);
}

}  // namespace rcs::ftm
