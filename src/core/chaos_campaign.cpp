#include "rcs/core/chaos_campaign.hpp"

#include <algorithm>
#include <optional>

#include "rcs/app/app_base.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::core {

namespace {

/// Whether this FTM's fault model covers value faults by masking them
/// (re-execution or a diversified alternate). Only such FTMs get transient
/// value faults injected: for the others a corruption is out of model and
/// any verdict would be meaningless (Table 1 scoping).
bool masks_value_faults(const ftm::FtmConfig& config) {
  return config.proceed == ftm::brick::kProceedTr ||
         config.proceed == ftm::brick::kProceedRb;
}

/// Whether this FTM ships PBR checkpoints (the ckpt.* fsim points live on
/// that path; other FTMs never reach them).
bool pbr_checkpoints(const ftm::FtmConfig& config) {
  return config.sync_after == ftm::brick::kSyncAfterPbr ||
         config.sync_after == ftm::brick::kSyncAfterPbrAssert;
}

Value kv_request(const std::string& op, const std::string& key) {
  return Value::map().set("op", op).set("key", key);
}

/// Issue one request and step the loop until its reply or `budget` elapses.
std::optional<Value> drive(ResilientSystem& system, Value request,
                           sim::Duration budget) {
  std::optional<Value> reply;
  system.client().send(std::move(request),
                       [&reply](const Value& r) { reply = r; });
  const sim::Time deadline = system.sim().now() + budget;
  while (!reply && system.sim().now() < deadline) {
    if (system.sim().loop().empty()) break;
    system.sim().loop().step();
  }
  return reply;
}

ChaosCampaignResult execute(const ChaosCampaignOptions& options,
                            const sim::ChaosSchedule* forced) {
  SystemOptions sys;
  sys.seed = options.seed;
  sys.start_monitoring = false;  // campaigns adapt only on explicit request
  ResilientSystem system(sys);
  system.sim().loop().reserve(options.queue_depth_hint);
  // Tracing must switch on before deployment so the deploy spans and every
  // request span land in the rings; the run itself stays bit-identical
  // (recording never schedules events or draws randomness).
  if (options.record_trace) system.sim().tracer().set_enabled(true);

  auto config = ftm::FtmConfig::by_name(options.ftm);
  config.delta_checkpoint = options.delta_checkpoint;
  const bool has_transition = !options.transition_to.empty();
  ftm::FtmConfig target;
  if (has_transition) {
    target = ftm::FtmConfig::by_name(options.transition_to);
    target.delta_checkpoint = options.delta_checkpoint;
  }

  if (options.fsim) {
    // Enable before deployment: deploy-time hits (repository fetches) land
    // in the coverage report even though no window is armed yet. The fsim
    // RNG stream is salted off the campaign seed, independent of both the
    // schedule draw and the simulation's own stream.
    system.sim().fsim().reseed(options.seed ^ 0x0F51DC0DE5EEDB0BULL);
    system.sim().fsim().set_enabled(true);
  }

  system.deploy_and_wait(config);
  auto& sim = system.sim();

  // --- Chaos scope: fault classes the deployed FTM(s) are specified for.
  sim::ChaosScheduleOptions chaos;
  chaos.replicas = config.duplex ? system.replica_count() : 1;
  chaos.start = sim.now() + 500 * sim::kMillisecond;
  chaos.heal_deadline = chaos.start + options.chaos_horizon;
  chaos.events = options.chaos_events;
  chaos.allow_crashes =
      config.duplex && (!has_transition || target.duplex);
  chaos.allow_transients =
      masks_value_faults(config) &&
      (!has_transition || masks_value_faults(target));
  if (options.fsim) {
    // Fault-simulation targets: only points the deployed FTM(s) can reach,
    // so every armed window has traffic to fire on. Caps keep each window
    // within what the masking/escalation path absorbs (e.g. repo.fetch stays
    // below the engine's retry budget; at most one script rollback so the
    // surviving replica completes the transition).
    const auto wants = [&options](fsim::Point p) {
      return options.fsim_points.empty() ||
             std::find(options.fsim_points.begin(), options.fsim_points.end(),
                       static_cast<int>(p)) != options.fsim_points.end();
    };
    const auto add = [&](fsim::Point p, int cap, bool whole_horizon = false,
                         bool exclusive_with_crashes = false) {
      if (!wants(p)) return;
      sim::ChaosScheduleOptions::FsimTarget target_opt;
      target_opt.point = static_cast<int>(p);
      target_opt.max_fires_cap = cap;
      target_opt.whole_horizon = whole_horizon;
      target_opt.exclusive_with_crashes = exclusive_with_crashes;
      chaos.fsim_targets.push_back(std::move(target_opt));
    };
    add(fsim::Point::kReplylogAppend, 2);
    add(fsim::Point::kTimerArm, 2);
    if (pbr_checkpoints(config) || (has_transition && pbr_checkpoints(target))) {
      add(fsim::Point::kCkptSerialize, 2);
      add(fsim::Point::kCkptApply, 2);
    }
    if (has_transition) {
      // Rare-path points: one fetch / one script run per campaign, so arm
      // across the whole horizon or the window would usually miss it.
      add(fsim::Point::kRepoFetch, 2, /*whole_horizon=*/true);
      if (config.duplex && target.duplex) {
        // A fired rollback fail-silences one replica for the rest of the
        // run: never combine with crash episodes (double fault, see
        // FsimTarget::exclusive_with_crashes).
        add(fsim::Point::kScriptRollback, 1, /*whole_horizon=*/true,
            /*exclusive_with_crashes=*/true);
      }
    }
    if (options.fsim_only && !chaos.fsim_targets.empty()) {
      chaos.weights.crash_restart = 0.0;
      chaos.weights.partition = 0.0;
      chaos.weights.degrade = 0.0;
      chaos.weights.transient = 0.0;
    }
  }
  sim::Time transition_at = 0;
  if (has_transition) {
    // Reconfigure mid-campaign, inside a reserved fault-free zone: the
    // campaign tests the service under chaos around a transition, not the
    // adaptation protocol under fire (that has its own suites).
    transition_at = chaos.start + (options.chaos_horizon * 2) / 5;
    chaos.quiet.emplace_back(transition_at - 500 * sim::kMillisecond,
                             transition_at + 4 * sim::kSecond);
  }

  const sim::ChaosSchedule schedule =
      forced ? *forced : sim::ChaosSchedule::generate(options.seed, chaos);

  std::vector<HostId> endpoints;
  for (std::size_t i = 0; i < chaos.replicas; ++i) {
    endpoints.push_back(system.replica(i).id());
  }
  endpoints.push_back(system.client_host().id());
  schedule.apply(system.faults(), endpoints);

  ftm::HistoryRecorder recorder(system.client(), sim);

  // --- Workload: its own RNG stream, so the schedule draw count never
  // shifts the request mix.
  Rng workload(options.seed ^ 0xC3A5C85C97CB3127ULL);
  const sim::Time first_request = sim.now() + 300 * sim::kMillisecond;
  for (int i = 0; i < options.requests; ++i) {
    const double pick = workload.uniform();
    Value request;
    if (pick < 0.70) {
      request = kv_request("incr", "ctr");
    } else if (pick < 0.90) {
      request = kv_request("get", "ctr");
    } else {
      request = kv_request("put", strf("aux", i % 3))
                    .set("value", static_cast<std::int64_t>(i));
    }
    sim.schedule_at(
        first_request + static_cast<sim::Duration>(i) * options.request_gap,
        [&system, request]() mutable {
          system.client().send(std::move(request));
        },
        "campaign.request");
  }

  bool transition_done = !has_transition;
  bool transition_ok = true;
  if (has_transition) {
    sim.schedule_at(
        transition_at,
        [&system, target, &transition_done, &transition_ok] {
          system.engine().transition(
              target, [&transition_done, &transition_ok](
                          const TransitionReport& r) {
                transition_done = true;
                transition_ok = r.ok;
              });
        },
        "campaign.transition");
  }

  // --- Run the chaos window, then drain retransmits after the last heal.
  sim.run_until(chaos.heal_deadline);
  const sim::Time drain_deadline = chaos.heal_deadline + options.drain;
  while ((system.client().outstanding() > 0 || !transition_done) &&
         sim.now() < drain_deadline) {
    if (sim.loop().empty()) break;
    sim.loop().step();
  }

  // --- Post-quiescence probes: the healed system must answer promptly.
  const auto probe = drive(system, kv_request("incr", "ctr"),
                           15 * sim::kSecond);
  std::int64_t final_counter = 0;
  bool final_counter_valid = false;
  const auto read = drive(system, kv_request("get", "ctr"),
                          15 * sim::kSecond);
  if (read && read->is_map() && !read->has("error") && read->has("result")) {
    const Value& result = read->at("result");
    if (result.at("found").as_bool()) {
      final_counter = result.at("value").as_int();
    }
    final_counter_valid = true;
  }
  (void)probe;  // recorded in the history; liveness judges it there

  // --- Verdict.
  // A fired script rollback fail-silences one replica (§5.3): its kernel
  // counters are gone and the engine reports the transition as failed —
  // both are the *specified* escalation, not a violation.
  const bool rollback_fired =
      system.sim().fsim().fires(fsim::Point::kScriptRollback) > 0;
  bool crashed = rollback_fired;
  for (const auto& e : schedule.episodes()) {
    crashed |= e.kind == sim::ChaosEpisodeKind::kCrashRestart;
  }
  ftm::HistoryChecker::Inputs inputs;
  inputs.counter_key = "ctr";
  inputs.final_counter = final_counter;
  inputs.final_counter_valid = final_counter_valid;
  inputs.outstanding = system.client().outstanding();
  inputs.result_valid = [](const Value& result) {
    return app::AppServerBase::checksum_ok(result);
  };
  inputs.kernel_counters_valid = !crashed;
  for (std::size_t i = 0; i < system.replica_count(); ++i) {
    auto& runtime = system.agent(i).runtime();
    if (!runtime.deployed()) continue;
    const auto& counters = runtime.kernel().counters();
    inputs.kernel_requests += counters.requests;
    inputs.kernel_replies += counters.replies + counters.duplicates_served;
  }

  ChaosCampaignResult result;
  result.seed = options.seed;
  result.schedule = schedule;
  result.client_stats = system.client().stats();
  result.final_counter = final_counter;
  result.label = strf(options.ftm, "/",
                      options.delta_checkpoint ? "delta" : "full",
                      has_transition ? "->" + options.transition_to : "");
  if (options.record_trace) {
    result.trace_json = system.sim().tracer().export_chrome_json();
    result.metrics_json = obs::snapshot_json(system.sim().metrics(), result.label);
  }
  result.report =
      ftm::HistoryChecker::check(recorder.records(), inputs);
  if (!final_counter_valid) {
    result.report.violations.push_back(
        "final counter read failed after quiescence");
  }
  if (!transition_done) {
    result.report.violations.push_back("transition never completed");
  } else if (!transition_ok && !rollback_fired) {
    result.report.violations.push_back("transition reported failure");
  }
  if (options.forbid_retries && result.client_stats.retries > 0) {
    result.report.violations.push_back(
        strf("retries forbidden by the oracle but the client retried ",
             result.client_stats.retries, " time(s)"));
  }
  const sim::EventLoop& loop = sim.loop();
  result.events = loop.processed();
  result.peak_queue_depth = loop.peak_pending();
  result.wheel = loop.wheel_stats();
  result.fsim = system.sim().fsim().coverage();
  result.passed = result.report.ok();
  result.trace = strf(
      "campaign seed=", options.seed, " label=", result.label,
      " requests=", options.requests, "\n", schedule.to_string(),
      recorder.trace(), "final_counter=", final_counter,
      " valid=", final_counter_valid ? 1 : 0, " transition=",
      has_transition ? (transition_done ? (transition_ok ? "ok" : "failed")
                                        : "incomplete")
                     : "none",
      " retries=", result.client_stats.retries, "\n",
      "fsim pairs=", result.fsim.pair_count(),
      " fires=", result.fsim.fire_total(), "\n",
      "verdict: ", result.report.to_string(), "\n");
  return result;
}

}  // namespace

ChaosCampaignResult run_campaign(const ChaosCampaignOptions& options) {
  return execute(options, nullptr);
}

ChaosCampaignResult replay_campaign(const ChaosCampaignOptions& options,
                                    const sim::ChaosSchedule& schedule) {
  return execute(options, &schedule);
}

sim::ChaosSchedule shrink_schedule(const ChaosCampaignOptions& options,
                                   sim::ChaosSchedule schedule) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < schedule.episode_count(); ++i) {
      const auto candidate = schedule.without_episode(i);
      if (!replay_campaign(options, candidate).passed) {
        schedule = candidate;
        progress = true;
        break;
      }
    }
  }
  return schedule;
}

}  // namespace rcs::core
