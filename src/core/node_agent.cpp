#include "rcs/core/node_agent.hpp"

#include <algorithm>
#include <memory>

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::core {

Value NodeAgent::StepTimings::to_value() const {
  Value v = Value::map();
  v.set("quiesce", static_cast<std::int64_t>(quiesce))
      .set("deploy", static_cast<std::int64_t>(deploy))
      .set("script", static_cast<std::int64_t>(script))
      .set("removal", static_cast<std::int64_t>(removal))
      .set("state_transfer", static_cast<std::int64_t>(state_transfer));
  return v;
}

NodeAgent::StepTimings NodeAgent::StepTimings::from_value(const Value& value) {
  StepTimings t;
  t.quiesce = value.at("quiesce").as_int();
  t.deploy = value.at("deploy").as_int();
  t.script = value.at("script").as_int();
  t.removal = value.at("removal").as_int();
  t.state_transfer = value.at("state_transfer").as_int();
  return t;
}

NodeAgent::NodeAgent(sim::Host& host, CostModel cost,
                     const comp::ComponentRegistry* registry)
    : host_(host),
      cost_(cost),
      registry_(registry),
      runtime_(host, library_, registry) {
  register_handlers();
  host_.on_restart([this] {
    register_handlers();  // volatile handlers died with the crash
    on_restart();
  });
}

void NodeAgent::register_handlers() {
  host_.register_handler("adapt.deploy", [this](const sim::Message& m) {
    handle_deploy(m.payload, m.from);
  });
  host_.register_handler("adapt.apply", [this](const sim::Message& m) {
    handle_apply(m.payload, m.from);
  });
  host_.register_handler("adapt.monolithic", [this](const sim::Message& m) {
    handle_monolithic(m.payload, m.from);
  });
  host_.register_handler("adapt.intra", [this](const sim::Message& m) {
    handle_intra(m.payload, m.from);
  });
  host_.register_handler("adapt.query_config", [this](const sim::Message& m) {
    handle_query_config(m.from);
  });
  host_.register_handler("adapt.config", [this](const sim::Message& m) {
    // Peer's answer during restart recovery.
    if (!recovering_) return;
    recovering_ = false;
    if (!m.payload->at("found").as_bool()) return;
    auto params = ftm::DeployParams::from_value(m.payload->at("params"));
    // The answer carries the responder's CURRENT role: the master we rejoin
    // under is the responder itself when it leads, otherwise whoever the
    // responder follows. Assuming "responder == master" deadlocks when a
    // backup answers first.
    const bool responder_leads = params.role != ftm::Role::kBackup;
    const auto self = static_cast<std::int64_t>(host_.id().value());
    const auto responder = static_cast<std::int64_t>(m.from.value());
    const auto master =
        (responder_leads || params.master == self || params.master < 0)
            ? responder
            : params.master;
    params.role = ftm::Role::kBackup;
    // Our peer group: the responder's group with the responder swapped in
    // for ourselves.
    std::vector<std::int64_t> peers = params.peers;
    std::erase(peers, self);
    if (std::find(peers.begin(), peers.end(), responder) == peers.end()) {
      peers.push_back(responder);
    }
    params.peers = std::move(peers);
    params.master = master;
    try {
      deploy_local(params);
    } catch (const Error& e) {
      // §5.3: the peer runs a configuration we cannot deploy — e.g. it
      // transitioned to an FTM whose package never reached this host before
      // the crash. A replica that cannot rejoin consistently must not
      // linger half-recovered: enforce fail-silence; the peer already
      // serves master-alone.
      log().warn("agent", host_.name(),
                 ": recovery deploy failed, enforcing fail-silence: ",
                 e.what());
      host_.schedule_after(0, [this] { host_.crash(); }, "agent.failsilent");
      return;
    }
    runtime_.request_rejoin();
    log().info("agent", host_.name(), ": recovered as backup of h",
               m.from.value(), " running ", params.config.name);
  });
}

void NodeAgent::report_events_to(HostId manager) {
  monitor_ = manager;
  report_stats();
}

void NodeAgent::report_stats() {
  if (!monitor_) return;
  if (runtime_.deployed()) {
    // Periodic throughput telemetry for the monitoring engine's
    // resource-usage probes (§3.1).
    Value stats = Value::map();
    stats.set("host", static_cast<std::int64_t>(host_.id().value()))
        .set("replies",
             static_cast<std::int64_t>(runtime_.kernel().counters().replies));
    host_.send(*monitor_, "monitor.stats", std::move(stats));
  }
  host_.schedule_after(500 * sim::kMillisecond, [this] { report_stats(); },
                       "agent.stats");
}

void NodeAgent::attach_kernel_listeners() {
  if (!runtime_.deployed()) return;
  runtime_.kernel().set_fault_listener([this](const std::string& kind) {
    if (!monitor_) return;
    Value event = Value::map();
    event.set("host", static_cast<std::int64_t>(host_.id().value()))
        .set("kind", kind);
    host_.send(*monitor_, "monitor.event", std::move(event));
  });
  runtime_.kernel().set_role_listener([this](ftm::Role role) {
    if (!monitor_) return;
    Value event = Value::map();
    event.set("host", static_cast<std::int64_t>(host_.id().value()))
        .set("kind", strf("role:", to_string(role)));
    host_.send(*monitor_, "monitor.event", std::move(event));
  });
}

void NodeAgent::deploy_local(const ftm::DeployParams& params) {
  if (runtime_.deployed()) runtime_.teardown();
  register_handlers();  // teardown unregisters the ftm handlers only; keep ours
  runtime_.deploy(params);
  attach_kernel_listeners();
}

void NodeAgent::trace_step(const char* step, const Value& txn,
                           sim::Duration cost) {
  obs::Tracer& tracer = host_.sim().tracer();
  if (!tracer.enabled() || cost <= 0) return;
  const sim::Time now = host_.sim().now();
  const std::uint64_t trace =
      txn.is_int() ? static_cast<std::uint64_t>(txn.as_int()) : 0;
  tracer.span(host_.id().value(), tracer.intern(strf("adapt.", step)), trace,
              now - cost, now);
}

void NodeAgent::ack(HostId engine, const Value& txn, bool ok,
                    const std::string& error, const StepTimings& timings) {
  Value payload = Value::map();
  payload.set("txn", txn)
      .set("host", static_cast<std::int64_t>(host_.id().value()))
      .set("ok", ok)
      .set("timings", timings.to_value());
  if (!error.empty()) payload.set("error", error);
  host_.send(engine, "adapt.ack", std::move(payload));
}

// ---------------------------------------------------------------------------
// Full deployment (Table 3, first row)
// ---------------------------------------------------------------------------

void NodeAgent::handle_deploy(const Value& request, HostId engine) {
  const Value txn = request.at("txn");
  // Decoded once per host; the steps below share it.
  const auto package = std::make_shared<const TransitionPackage>(
      TransitionPackage::from_value(request.at("package")));
  const auto params = ftm::DeployParams::from_value(request.at("params"));
  Rng& rng = host_.sim().rng();

  const sim::Duration bootstrap = cost_.jittered(cost_.runtime_bootstrap, rng);
  const sim::Duration install = cost_.jittered(
      cost_.package_install_base +
          static_cast<sim::Duration>(package->components.entries().size()) *
              cost_.component_load,
      rng);

  host_.schedule_after(bootstrap + install, [this, txn, package, params, engine,
                                             bootstrap, install] {
    StepTimings timings;
    timings.deploy = bootstrap + install;
    trace_step("deploy", txn, timings.deploy);
    const Status installed = library_.install(package->components);
    if (!installed.is_ok()) {
      ack(engine, txn, false, installed.message(), timings);
      return;
    }
    try {
      if (runtime_.deployed()) runtime_.teardown();
      const auto stats = runtime_.deploy(params);
      attach_kernel_listeners();
      const sim::Duration script_cost = cost_.jittered(
          static_cast<sim::Duration>(stats.ops) * cost_.script_op,
          host_.sim().rng());
      host_.schedule_after(script_cost,
                           [this, txn, engine, timings, script_cost]() mutable {
                             timings.script = script_cost;
                             trace_step("script", txn, script_cost);
                             ack(engine, txn, true, "", timings);
                           });
    } catch (const Error& e) {
      ack(engine, txn, false, e.what(), timings);
    }
  });
}

// ---------------------------------------------------------------------------
// Differential transition (§5.1-5.3)
// ---------------------------------------------------------------------------

void NodeAgent::handle_apply(const Value& request, HostId engine) {
  const Value txn = request.at("txn");
  const auto package = std::make_shared<const TransitionPackage>(
      TransitionPackage::from_value(request.at("package")));
  const auto target = ftm::FtmConfig::from_value(request.at("target"));
  const bool sabotage = request.get_or("sabotage", Value(false)).as_bool();

  if (!runtime_.deployed()) {
    ack(engine, txn, false, "no FTM deployed on this replica", {});
    return;
  }

  const sim::Time quiesce_start = host_.sim().now();
  runtime_.quiesce([this, txn, package, target, engine, sabotage,
                    quiesce_start] {
    StepTimings timings;
    timings.quiesce = host_.sim().now() - quiesce_start;
    trace_step("quiesce", txn, timings.quiesce);
    Rng& rng = host_.sim().rng();

    // Step 1 (Fig. 9): deploy the transition package.
    const auto n_components =
        static_cast<sim::Duration>(package->components.entries().size());
    const sim::Duration deploy_cost = cost_.jittered(
        cost_.package_install_base + n_components * cost_.component_load, rng);

    host_.schedule_after(deploy_cost, [this, txn, package, target, engine,
                                       sabotage, timings, deploy_cost]() mutable {
      timings.deploy = deploy_cost;
      trace_step("deploy", txn, deploy_cost);
      const Status installed = library_.install(package->components);

      // Step 2: execute the reconfiguration script (transactional).
      script::ExecutionStats stats;
      std::string error;
      bool ok = installed.is_ok();
      if (!ok) error = installed.message();
      if (ok && sabotage) {
        ok = false;
        error = "injected reconfiguration failure (test hook)";
      }
      if (ok) {
        try {
          stats = runtime_.run_transition(package->script, target);
        } catch (const ScriptException& e) {
          ok = false;
          error = e.what();
        }
      }
      if (!ok) {
        // §5.3: the transaction rolled back locally, but the duplex pair
        // must not linger in mixed configurations — kill the local replica
        // (fail-silent); the peer's failure detector takes over.
        log().warn("agent", host_.name(),
                   ": reconfiguration failed, enforcing fail-silence: ", error);
        ack(engine, txn, false, error, timings);
        host_.schedule_after(0, [this] { host_.crash(); }, "agent.failsilent");
        return;
      }

      const sim::Duration script_cost = cost_.jittered(
          static_cast<sim::Duration>(stats.ops) * cost_.script_op,
          host_.sim().rng());
      host_.schedule_after(script_cost, [this, txn, engine, package, timings,
                                         script_cost]() mutable {
        timings.script = script_cost;
        trace_step("script", txn, script_cost);

        // Step 3: remove residual components of the old configuration.
        const auto n_replaced =
            static_cast<sim::Duration>(package->components.entries().size());
        const sim::Duration removal_cost = cost_.jittered(
            cost_.removal_base + n_replaced * cost_.removal_per_component,
            host_.sim().rng());
        host_.schedule_after(removal_cost, [this, txn, engine, timings,
                                            removal_cost]() mutable {
          timings.removal = removal_cost;
          trace_step("removal", txn, removal_cost);
          runtime_.resume();
          ack(engine, txn, true, "", timings);
        });
      });
    });
  });
}

// ---------------------------------------------------------------------------
// Monolithic replacement baseline (§6.2 comparison)
// ---------------------------------------------------------------------------

void NodeAgent::handle_monolithic(const Value& request, HostId engine) {
  const Value txn = request.at("txn");
  const auto package = std::make_shared<const TransitionPackage>(
      TransitionPackage::from_value(request.at("package")));
  const auto params = ftm::DeployParams::from_value(request.at("params"));

  if (!runtime_.deployed()) {
    ack(engine, txn, false, "no FTM deployed on this replica", {});
    return;
  }

  const sim::Time quiesce_start = host_.sim().now();
  runtime_.quiesce([this, txn, package, params, engine, quiesce_start] {
    StepTimings timings;
    timings.quiesce = host_.sim().now() - quiesce_start;
    trace_step("quiesce", txn, timings.quiesce);
    Rng& rng = host_.sim().rng();

    // Monolithic replacement must transfer the application state out of the
    // old composite and into the new one — the very cost differential
    // transitions avoid (§6.1).
    Value state;
    if (params.app.state_access) {
      state = ftm::state_manager_of(runtime_.composite().child("server"))
                  .get_state();
    }
    const auto state_bytes = static_cast<sim::Duration>(state.encoded_size());
    const sim::Duration state_cost = cost_.jittered(
        cost_.state_transfer_base +
            state_bytes * cost_.state_transfer_per_kb / 1024,
        rng);

    const auto n_components =
        static_cast<sim::Duration>(package->components.entries().size());
    const sim::Duration teardown_cost = cost_.jittered(
        cost_.removal_base + n_components * cost_.removal_per_component, rng);
    const sim::Duration install_cost = cost_.jittered(
        cost_.package_install_base + n_components * cost_.component_load, rng);

    host_.schedule_after(
        state_cost + teardown_cost + install_cost,
        [this, txn, package, params, engine, state, timings, state_cost,
         teardown_cost, install_cost]() mutable {
          timings.state_transfer = state_cost;
          timings.removal = teardown_cost;
          timings.deploy = install_cost;
          // The three sequential steps were charged as one delay; partition
          // it so the trace shows where the monolithic replacement's time
          // actually goes (state out -> teardown -> install).
          obs::Tracer& tracer = host_.sim().tracer();
          if (tracer.enabled()) {
            const std::uint64_t trace =
                txn.is_int() ? static_cast<std::uint64_t>(txn.as_int()) : 0;
            const auto pid = host_.id().value();
            const sim::Time end = host_.sim().now();
            const sim::Time install_from = end - install_cost;
            const sim::Time teardown_from = install_from - teardown_cost;
            const sim::Time state_from = teardown_from - state_cost;
            tracer.span(pid, tracer.intern("adapt.state_transfer"), trace,
                        state_from, teardown_from);
            tracer.span(pid, tracer.intern("adapt.removal"), trace,
                        teardown_from, install_from);
            tracer.span(pid, tracer.intern("adapt.deploy"), trace,
                        install_from, end);
          }
          const Status installed = library_.install(package->components);
          if (!installed.is_ok()) {
            ack(engine, txn, false, installed.message(), timings);
            return;
          }
          try {
            runtime_.teardown();
            const auto stats = runtime_.deploy(params);
            attach_kernel_listeners();
            if (!state.is_null()) {
              ftm::state_manager_of(runtime_.composite().child("server"))
                  .set_state(state);
            }
            const sim::Duration script_cost = cost_.jittered(
                static_cast<sim::Duration>(stats.ops) * cost_.script_op,
                host_.sim().rng());
            host_.schedule_after(
                script_cost, [this, txn, engine, timings, script_cost]() mutable {
                  timings.script = script_cost;
                  trace_step("script", txn, script_cost);
                  ack(engine, txn, true, "", timings);
                });
          } catch (const Error& e) {
            ack(engine, txn, false, e.what(), timings);
          }
        });
  });
}

// ---------------------------------------------------------------------------
// Intra-FTM transition (Fig. 8 dotted edges)
// ---------------------------------------------------------------------------

void NodeAgent::handle_intra(const Value& request, HostId engine) {
  const Value txn = request.at("txn");
  if (!runtime_.deployed()) {
    ack(engine, txn, false, "no FTM deployed on this replica", {});
    return;
  }
  // The FTM keeps running; only its configuration context is rewritten —
  // still through a (one-statement) transactional reconfiguration script.
  StepTimings timings;
  script::ExecutionStats stats;
  try {
    stats = script::Interpreter::run_source(
        R"(set("protocol", "context", ctx);)", runtime_.composite(),
        Value::map().set("ctx", request.at("context")));
  } catch (const ScriptException& e) {
    ack(engine, txn, false, e.what(), timings);
    return;
  }
  const sim::Duration script_cost = cost_.jittered(
      static_cast<sim::Duration>(stats.ops) * cost_.script_op,
      host_.sim().rng());
  host_.schedule_after(script_cost, [this, txn, engine, timings,
                                     script_cost]() mutable {
    timings.script = script_cost;
    trace_step("script", txn, script_cost);
    runtime_.persist(runtime_.params());
    ack(engine, txn, true, "", timings);
  });
}

// ---------------------------------------------------------------------------
// Restart recovery (§5.3)
// ---------------------------------------------------------------------------

void NodeAgent::handle_query_config(HostId requester) {
  Value response = Value::map();
  if (runtime_.deployed()) {
    // A query from our own master means it crashed, lost its deployment and
    // is asking its way back in. A fast restart can beat the failure
    // detector (a sub-timeout blip), in which case no promotion ever fired
    // and both sides would settle as backups — a leaderless group. Treat
    // the query itself as the suspicion: run the standard election before
    // answering, so the requester rejoins under a live master.
    const auto requester_id = static_cast<std::int64_t>(requester.value());
    ftm::ProtocolKernel& kernel = runtime_.kernel();
    if (kernel.role() == ftm::Role::kBackup && kernel.master() == requester_id) {
      kernel.peer_suspected(requester_id);
    }
    // Answer with the kernel's CURRENT role and master — the deploy-time
    // snapshot goes stale across promotions.
    auto params = runtime_.params();
    params.role = kernel.role();
    params.master = kernel.master();
    response.set("found", true).set("params", params.to_value());
  } else {
    response.set("found", false);
  }
  host_.send(requester, "adapt.config", std::move(response));
}

void NodeAgent::on_restart() {
  const auto persisted = ftm::FtmRuntime::load_persisted(host_);
  if (!persisted.has_value()) return;

  if (!persisted->peers.empty()) {
    // Ask the surviving peers which configuration they completed (§5.3: the
    // restarted replica must come back in its counterparts' configuration,
    // not necessarily the one it crashed in). First responder wins. The
    // query is retransmitted while recovery is pending: a single datagram
    // lost to a chaotic link must not demote a healthy pair to split-brain.
    recovering_ = true;
    query_peers_for_config(*persisted, 1);
  } else {
    auto params = *persisted;
    deploy_local(params);
  }
}

void NodeAgent::query_peers_for_config(const ftm::DeployParams& persisted,
                                       int attempt) {
  constexpr int kMaxAttempts = 8;
  constexpr auto kRetryGap = 150 * sim::kMillisecond;
  if (!recovering_) return;  // a peer already answered
  if (attempt > kMaxAttempts) {
    // Peers stayed silent across every retry: assume they are gone and fall
    // back to our own logged configuration.
    recovering_ = false;
    auto params = persisted;
    params.role = ftm::Role::kAlone;
    try {
      deploy_local(params);
    } catch (const Error& e) {
      // Same fail-silence contract as the peer-answer path: an exception
      // here would otherwise escape a timer action and abort the process.
      log().warn("agent", host_.name(),
                 ": recover-alone deploy failed, enforcing fail-silence: ",
                 e.what());
      host_.schedule_after(0, [this] { host_.crash(); }, "agent.failsilent");
      return;
    }
    log().info("agent", host_.name(), ": peer silent, recovered alone in ",
               params.config.name);
    return;
  }
  for (const auto peer : persisted.peers) {
    if (peer < 0) continue;
    host_.send(HostId{static_cast<std::uint32_t>(peer)}, "adapt.query_config",
               Value::map());
  }
  host_.schedule_after(
      kRetryGap,
      [this, persisted, attempt] {
        query_peers_for_config(persisted, attempt + 1);
      },
      "agent.recover_retry");
}

}  // namespace rcs::core
