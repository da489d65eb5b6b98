#include "rcs/ftm/protocol.hpp"

#include <algorithm>

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

namespace {
/// The request a peer message names; throws FtmError if it names none.
const RequestKey& named_request(const PeerMessage& message) {
  if (!message.key) {
    throw FtmError(strf("protocol: replica message '", to_string(message.kind),
                        "' names no request"));
  }
  return *message.key;
}
}  // namespace

comp::ComponentTypeInfo ProtocolKernel::type_info() {
  comp::ComponentTypeInfo info;
  info.type_name = kernel::kProtocol;
  info.description =
      "fault tolerance protocol kernel: pipeline, at-most-once, failover "
      "(common part)";
  info.category = comp::TypeCategory::kKernel;
  info.services = {{"client", iface::kClientPort},
                   {"peer", iface::kPeerPort},
                   {"control", iface::kProtocolControl}};
  info.references = {{"before", iface::kSyncBefore},
                     {"exec", iface::kProceed},
                     {"after", iface::kSyncAfter},
                     {"replyLog", iface::kReplyLog},
                     {"detector", iface::kFailureDetector, /*required=*/false}};
  info.default_properties.set("role", "primary")
      .set("peers", Value::list())
      .set("master", std::int64_t{-1})
      .set("ftm", "unconfigured")
      .set("retry_us", std::int64_t{kDefaultRetryInterval});
  info.code_size = 64'000;
  info.source_file = "src/ftm/protocol.cpp";
  info.factory = [] { return std::make_unique<ProtocolKernel>(); };
  check_slots(info, {{kBefore, "before"},
                     {kExec, "exec"},
                     {kAfter, "after"},
                     {kReplyLog, "replyLog"}});
  return info;
}

ProtocolKernel::~ProtocolKernel() {
  if (host() != nullptr) {
    for (const auto& [id, pending] : resume_timers_) {
      host()->cancel(pending.timer);
    }
    for (const auto& [key, ctx] : pending_) host()->cancel(ctx.retry_timer);
  }
}

void ProtocolKernel::read_retry_interval() {
  const Value v = property("retry_us");
  retry_interval_ = v.is_int() && v.as_int() > 0 ? v.as_int()
                                                 : kDefaultRetryInterval;
}

void ProtocolKernel::schedule_peer_retry(Ctx& ctx) {
  if (host() == nullptr) return;
  sim::Duration interval = retry_interval_;
  if (host()->sim().fsim().enabled()) {
    // fsim "timer.arm": the retry timer mis-arms (a lost tick). The retry
    // still fires — one interval late — so the failure is masked as added
    // latency, never as a lost retransmission.
    const fsim::Site site{"peer_retry", 0,
                          static_cast<std::int64_t>(host()->sim().now())};
    if (host()->sim().fsim().should_fail(fsim::Point::kTimerArm, site)) {
      interval *= 2;
    }
  }
  // Every path that ends the wait or erases ctx cancels this timer first
  // (cancel_peer_retry), so the closure can hold ctx itself.
  ctx.retry_timer = host()->schedule_after(
      interval, [this, target = &ctx] { on_peer_retry(*target); },
      "ftm.peer_retry");
}

void ProtocolKernel::cancel_peer_retry(Ctx& ctx) {
  if (host() != nullptr) host()->cancel(ctx.retry_timer);
  ctx.retry_timer = TimerId{};
}

void ProtocolKernel::on_peer_retry(Ctx& ctx) {
  ctx.retry_timer = TimerId{};
  if (!ctx.waiting || ctx.expect == PeerKind::kNone) return;
  // Re-run the waiting phase: the brick re-sends its peer message (a lost
  // checkpoint/exec request) or decides to give up (ctx.attempt counts).
  ++ctx.attempt;
  log().debug("ftm", composite()->name(), ": retrying ", ctx.key, " phase ",
              ctx.phase, " (attempt ", ctx.attempt, ")");
  ctx.waiting = false;
  apply_brick_status(ctx, brick(ctx.phase).run_phase(brick_ctx(ctx)));
}

void ProtocolKernel::deliver_client(const Payload& payload) {
  ensure_started("client");
  handle_client_request(payload);
}

void ProtocolKernel::deliver_peer(const Payload& payload, std::int64_t from) {
  ensure_started("peer");
  handle_peer_message(payload, from);
}

void ProtocolKernel::on_start() {
  bind_observability();
  rebuild_peer_group();
  read_retry_interval();
}

void ProtocolKernel::bind_observability() {
  if (host() == nullptr) return;
  sim::Simulation& sim = host()->sim();
  tracer_ = &sim.tracer();
  phase_span_names_[0] = tracer_->intern("ftm.before");
  phase_span_names_[1] = tracer_->intern("ftm.proceed");
  phase_span_names_[2] = tracer_->intern("ftm.after");
  promote_span_name_ = tracer_->intern("ftm.promote");
  rejoin_span_name_ = tracer_->intern("ftm.rejoin");
  // Rebind the counter block into the registry, scoped per host. A fresh
  // kernel instance (redeploy, differential transition) re-seeds its cells
  // from zero, so counters keep their per-instance semantics while living
  // in one registry.
  obs::MetricsRegistry& metrics = sim.metrics();
  const auto bind = [&](obs::Counter& counter, const char* name) {
    counter.bind(metrics.counter_cell(strf("ftm.", name, "@", host()->name())));
  };
  bind(counters_.requests, "requests");
  bind(counters_.replies, "replies");
  bind(counters_.error_replies, "error_replies");
  bind(counters_.duplicates_served, "duplicates_served");
  bind(counters_.forwarded, "forwarded");
  bind(counters_.checkpoints_sent, "checkpoints_sent");
  bind(counters_.checkpoints_applied, "checkpoints_applied");
  bind(counters_.deltas_sent, "deltas_sent");
  bind(counters_.full_checkpoints_sent, "full_checkpoints_sent");
  bind(counters_.resyncs, "resyncs");
  bind(counters_.notifications, "notifications");
  bind(counters_.divergences, "divergences");
  bind(counters_.assertion_failures, "assertion_failures");
  bind(counters_.tr_mismatches, "tr_mismatches");
  bind(counters_.promotions, "promotions");
  bind(counters_.buffered, "buffered");
}

void ProtocolKernel::advance_phase(Ctx& ctx) {
  if (tracer_ != nullptr && tracer_->enabled() && ctx.phase < 3) {
    const sim::Time now = host()->sim().now();
    tracer_->span(host()->id().value(), phase_span_names_[ctx.phase], ctx.trace,
                  ctx.phase_start, now);
    ctx.phase_start = now;
  }
  ++ctx.phase;
}

void ProtocolKernel::rebuild_peer_group() {
  peers_.clear();
  const Value peers = property("peers");
  if (peers.is_list()) {
    for (const auto& entry : peers.as_list()) peers_.push_back(entry.as_int());
  }
  // Liveness: keep existing knowledge, default new members to alive.
  for (const auto peer : peers_) {
    peer_alive_map_.emplace(peer, true);
  }
  rebuild_alive_peers();
}

void ProtocolKernel::set_peer_alive(std::int64_t peer, bool alive) {
  peer_alive_map_[peer] = alive;
  rebuild_alive_peers();
}

void ProtocolKernel::rebuild_alive_peers() {
  alive_peers_.clear();
  for (const auto peer : peers_) {
    const auto it = peer_alive_map_.find(peer);
    if (it != peer_alive_map_.end() && it->second) alive_peers_.push_back(peer);
  }
}

void ProtocolKernel::on_property_changed(const std::string& key) {
  if (key == "peers") rebuild_peer_group();
  if (key == "retry_us") read_retry_interval();
  if (key == "role") {
    const Role new_role = role_from_string(property("role").as_string());
    if (new_role != role_) {
      role_ = new_role;
      log().info("ftm", composite()->name(), ": role is now ", to_string(role_));
      if (role_listener_) role_listener_(role_);
    }
  }
}

// ---------------------------------------------------------------------------
// Client path
// ---------------------------------------------------------------------------

void ProtocolKernel::handle_client_request(const Payload& payload) {
  ++counters_.requests;
  // A backup ignores direct client traffic; the client's retry lands on the
  // master (or on us once the failure detector promotes us).
  if (role_ == Role::kBackup) return;
  if (blocked_) {
    buffered_requests_.push_back(payload);
    counters_.buffered = std::max<std::uint64_t>(counters_.buffered, buffered());
    return;
  }
  const ClientRequest& request = payload.get<ClientRequest>();
  start_request(payload, request.client, request.id, request.trace,
                request.request, /*forwarded=*/false);
}

void ProtocolKernel::start_forwarded_request(const Payload& payload) {
  // The leader's forward {key, client, id, request, trace?}, read in place.
  const Value& data = payload.get<ReplicaMessage>().data();
  start_request(payload, data.at("client").as_int(),
                static_cast<std::uint64_t>(data.at("id").as_int()),
                static_cast<std::uint64_t>(data.get_or("trace", Value(0)).as_int()),
                data.at("request"), /*forwarded=*/true);
}

void ProtocolKernel::start_request(const Payload& source, std::int64_t client,
                                   std::uint64_t id, std::uint64_t trace,
                                   const Value& request, bool forwarded) {
  const RequestKey key{client, id};

  if (pending_.contains(key)) return;  // already in flight

  if (forwarded) {
    const auto aborted =
        std::find(aborted_keys_.begin(), aborted_keys_.end(), key);
    if (aborted != aborted_keys_.end()) {
      aborted_keys_.erase(aborted);
      return;  // the master already failed this request
    }
  }

  // At-most-once: answer retransmissions from the reply log. Every record
  // under a request's own key is the {id, result} cell its first reply
  // sent (complete, or a checkpoint's pending_reply, also when imported),
  // so the client gets that cell again, by handle.
  if (const Value* logged = reply_log().lookup(key)) {
    ++counters_.duplicates_served;
    if (!forwarded) {
      if (host() != nullptr) {
        host()->send(HostId{static_cast<std::uint32_t>(client)}, msg::kReply,
                     *logged);
      }
      ++counters_.replies;
    }
    return;
  }

  auto [it, inserted] = pending_.try_emplace(key);
  ensure(inserted, "duplicate pending ctx");
  Ctx& ctx = it->second;
  ctx.key = key;
  ctx.forwarded = forwarded;
  ctx.hold(source, request);
  if (tracer_ != nullptr && tracer_->enabled()) {
    ctx.trace = trace;
    ctx.phase_start = host()->sim().now();
  }
  advance(ctx);
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Brick& ProtocolKernel::brick(int phase) {
  if (phase < 0 || phase > static_cast<int>(kAfter)) {
    throw LogicError(strf("no brick for phase ", phase));
  }
  return face<Brick>(static_cast<std::size_t>(phase));
}

const RequestCtx& ProtocolKernel::brick_ctx(Ctx& ctx) const {
  ctx.role = role_;
  ctx.peer_alive = any_peer_alive();
  return ctx;
}

void ProtocolKernel::advance(Ctx& ctx) {
  while (ctx.phase < 3) {
    BrickStatus status = brick(ctx.phase).run_phase(brick_ctx(ctx));
    if (status.verdict != BrickStatus::Verdict::kDone) {
      apply_brick_status(ctx, std::move(status));
      return;
    }
    ctx.take_result(status);
    advance_phase(ctx);
  }
  complete(ctx);
}

void ProtocolKernel::apply_brick_status(Ctx& ctx, BrickStatus status) {
  using Verdict = BrickStatus::Verdict;
  switch (status.verdict) {
    case Verdict::kDone:
      ctx.take_result(status);
      advance_phase(ctx);
      advance(ctx);
      return;
    case Verdict::kWait: {
      ctx.take_result(status);
      ctx.waiting = true;
      // With an expected kind the context waits for peer messages; without
      // one it waits for resume_after (e.g. a compute timer).
      ctx.expect = status.expect;
      ctx.expect_remaining = status.expect_count;
      ctx.acked_peers.clear();
      if (ctx.expect == PeerKind::kNone) return;
      if (ctx.expect_remaining <= 0) {  // nobody to wait for after all
        ctx.waiting = false;
        advance_phase(ctx);
        advance(ctx);
        return;
      }
      // An early peer message may already be stashed: it counts as its
      // sender's answer.
      if (!stash_.empty()) {
        const auto stashed = stash_.find({ctx.key, ctx.expect});
        if (stashed != stash_.end()) {
          const HeldMessage held = std::move(stashed->second);
          stash_.erase(stashed);
          if (feed_waiting(ctx, PeerMessage(held.payload, held.from))) {
            return;
          }
        }
      }
      schedule_peer_retry(ctx);
      return;
    }
    case Verdict::kAgain:
      ctx.take_result(status);
      advance(ctx);
      return;
    case Verdict::kFail:
      fail_request(ctx, status.error.empty() ? "request failed" : status.error);
      return;
    case Verdict::kHandled:
    case Verdict::kStash:
    case Verdict::kDefer:
      break;
  }
  throw FtmError(strf("brick answered request ", ctx.key,
                      " with a verdict for unsolicited messages"));
}

void ProtocolKernel::complete(Ctx& ctx) {
  // One cell, which the reply log records and the client is sent, both by
  // handle: the one a brick built (a checkpoint's pending_reply), else one
  // built here, moving the result out of ctx, which is erased below.
  Value reply = ctx.take_reply();
  reply_log().record(ctx.key, reply);
  if (!ctx.forwarded && host() != nullptr) {
    host()->send(HostId{static_cast<std::uint32_t>(ctx.key.client)},
                 msg::kReply, std::move(reply));
    ++counters_.replies;
  }
  finish_and_erase(ctx.key);
}

void ProtocolKernel::fail_request(Ctx& ctx, const std::string& error) {
  log().warn("ftm", composite()->name(), ": request ", ctx.key, " failed: ",
             error);
  if (!ctx.forwarded && host() != nullptr) {
    Value reply = Value::map();
    reply.set("id", static_cast<std::int64_t>(ctx.key.id)).set("error", error);
    host()->send(HostId{static_cast<std::uint32_t>(ctx.key.client)},
                 msg::kReply, std::move(reply));
    ++counters_.error_replies;
    // Under an active strategy the follower runs its own pipeline for this
    // request and is waiting for our agreement message; it must learn that
    // the request died here, or its context leaks (and quiescence never
    // drains).
    if (any_peer_alive()) {
      send_peer({PeerPhase::kCtrl, PeerKind::kAbort, ctx.key,
                 Value::map().set("key", KeyText(ctx.key).view())});
    }
  }
  finish_and_erase(ctx.key);
}

void ProtocolKernel::finish_and_erase(RequestKey key) {
  {
    const auto it = pending_.find(key);
    if (it != pending_.end()) cancel_peer_retry(it->second);
  }
  pending_.erase(key);
  // Replay messages that were postponed until this request finished locally
  // (the brick can now answer them from the reply log).
  const auto deferred = deferred_.find(key);
  if (deferred != deferred_.end()) {
    auto messages = std::move(deferred->second);
    deferred_.erase(deferred);
    for (const auto& held : messages) handle_peer_message(held.payload, held.from);
  }
  if (blocked_) check_drained();
}

// ---------------------------------------------------------------------------
// Peer path
// ---------------------------------------------------------------------------

void ProtocolKernel::handle_peer_message(const Payload& payload,
                                         std::int64_t from) {
  const PeerMessage message(payload, from);
  if (message.phase == PeerPhase::kCtrl) {
    handle_ctrl(message);
    return;
  }

  const RequestKey& key = named_request(message);
  const auto it = pending_.find(key);
  if (it != pending_.end() && it->second.waiting &&
      it->second.expect == message.kind) {
    feed_waiting(it->second, message);
    return;
  }

  // Unsolicited message: dispatch to the phase's brick. The brick may act
  // directly (apply a checkpoint, serve an exec request, start a forwarded
  // pipeline) or ask the kernel to stash the message for a context that has
  // not reached the waiting phase yet.
  const int slot = static_cast<int>(message.phase);  // before, exec, after
  switch (brick(slot).on_peer(nullptr, message).verdict) {
    case BrickStatus::Verdict::kStash:
      stash_[{key, message.kind}] = HeldMessage{payload, from};
      break;
    case BrickStatus::Verdict::kDefer:
      deferred_[key].push_back(HeldMessage{payload, from});
      break;
    default:
      break;
  }
}

bool ProtocolKernel::feed_waiting(Ctx& ctx, const PeerMessage& message) {
  // Multi-ack waits: count each peer once; advance only when the whole
  // group answered (duplicates from retransmissions are absorbed here).
  if (std::find(ctx.acked_peers.begin(), ctx.acked_peers.end(),
                message.from) != ctx.acked_peers.end()) {
    return false;
  }
  ctx.acked_peers.push_back(message.from);
  if (static_cast<int>(ctx.acked_peers.size()) < ctx.expect_remaining) {
    return false;  // keep waiting for the rest of the group
  }
  cancel_peer_retry(ctx);
  ctx.waiting = false;
  apply_brick_status(ctx, brick(ctx.phase).on_peer(&brick_ctx(ctx), message));
  return true;
}

void ProtocolKernel::send_peer(ReplicaMessage message) {
  if (host() == nullptr || alive_peers_.empty()) return;
  // One shared payload for the whole fan-out: with N backups the message is
  // built (and its wire size computed) once, not N times.
  const Payload shared = make_payload(std::move(message));
  for (const auto peer : alive_peers_) {
    if (peer < 0) continue;
    host()->send(HostId{static_cast<std::uint32_t>(peer)}, msg::kReplica,
                 shared);
  }
}

void ProtocolKernel::send_peer_to(std::int64_t peer, ReplicaMessage message) {
  if (peer < 0 || host() == nullptr) return;
  host()->send(HostId{static_cast<std::uint32_t>(peer)}, msg::kReplica,
               make_payload(std::move(message)));
}

// ---------------------------------------------------------------------------
// Failover / rejoin
// ---------------------------------------------------------------------------

void ProtocolKernel::set_role(Role role) {
  if (role == role_) return;
  set_property("role", Value(to_string(role)));  // triggers listener hook
}

void ProtocolKernel::rerun_waiting_phase(Ctx& ctx) {
  cancel_peer_retry(ctx);
  ctx.waiting = false;
  ++ctx.attempt;
  apply_brick_status(ctx, brick(ctx.phase).run_phase(brick_ctx(ctx)));
}

void ProtocolKernel::peer_suspected(std::int64_t peer) {
  ensure_started("control");
  const auto it = peer_alive_map_.find(peer);
  if (it == peer_alive_map_.end() || !it->second) return;
  set_peer_alive(peer, false);
  log().info("ftm", composite()->name(), ": peer h", peer, " suspected, role ",
             to_string(role_));

  const auto master = this->master();
  const auto self =
      host() != nullptr ? static_cast<std::int64_t>(host()->id().value()) : -1;

  if (role_ == Role::kPrimary && !any_peer_alive()) {
    // Last one standing.
    set_role(Role::kAlone);
  } else if (role_ == Role::kBackup && peer == master) {
    // The master died: the lowest-id live replica takes over
    // (deterministic rank-based election; all backups compute the same).
    std::int64_t new_master = self;
    for (const auto candidate : alive_peers_) {
      new_master = std::min(new_master, candidate);
    }
    set_property("master", Value(new_master));
    if (new_master == self) {
      ++counters_.promotions;
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->instant(host()->id().value(), promote_span_name_, 0,
                         host()->sim().now(), peer);
      }
      set_role(any_peer_alive() ? Role::kPrimary : Role::kAlone);
    }
  }

  // Contexts parked on a response from the dead peer must not wait forever:
  // re-run their phase against the new group (bricks re-broadcast to the
  // survivors or finish master-alone), in the byte order of their keys'
  // texts: the order of the re-sent messages is part of the recorded
  // behaviour (benchmark/baselines.txt).
  std::vector<RequestKey> waiting_keys;
  for (const auto& [key, ctx] : pending_) {
    if (ctx.waiting && ctx.expect != PeerKind::kNone) {
      waiting_keys.push_back(key);
    }
  }
  std::sort(waiting_keys.begin(), waiting_keys.end(), text_less);
  for (const auto& key : waiting_keys) {
    const auto pending = pending_.find(key);
    if (pending != pending_.end()) rerun_waiting_phase(pending->second);
  }
}

void ProtocolKernel::peer_recovered(std::int64_t peer) {
  const auto it = peer_alive_map_.find(peer);
  if (it == peer_alive_map_.end() || it->second) return;
  set_peer_alive(peer, true);
  log().info("ftm", composite()->name(), ": peer h", peer, " recovered");
}

void ProtocolKernel::handle_ctrl(const PeerMessage& message) {
  const PeerKind kind = message.kind;
  const std::int64_t from = message.from;
  if (kind == PeerKind::kAbort) {
    // The master failed this request; drop our forwarded context for it
    // (nothing to record, nothing to reply). If the forward itself has not
    // arrived yet (reordered on a jittery link), remember the abort so the
    // late forward is not started.
    const RequestKey& key = named_request(message);
    const auto it = pending_.find(key);
    if (it != pending_.end() && it->second.forwarded) {
      finish_and_erase(it->first);
    } else if (it == pending_.end()) {
      aborted_keys_.push_back(key);
      while (aborted_keys_.size() > 256) aborted_keys_.pop_front();
    }
    return;
  }
  if (kind == PeerKind::kJoin) {
    // A restarted replica asks to rejoin as backup; only the master answers,
    // shipping its state and reply log.
    if (role_ != Role::kPrimary && role_ != Role::kAlone) return;
    if (from >= 0) set_peer_alive(from, true);
    send_peer_to(from, {PeerPhase::kCtrl, PeerKind::kJoinAck,
                        brick(2).make_join_snapshot()});
    set_role(Role::kPrimary);
    return;
  }
  if (kind == PeerKind::kJoinAck) {
    if (from >= 0) set_peer_alive(from, true);
    if (tracer_ != nullptr && tracer_->enabled() && host() != nullptr) {
      tracer_->instant(host()->id().value(), rejoin_span_name_, 0,
                       host()->sim().now(), from);
    }
    brick(2).apply_join_snapshot(message.body<JoinSnapshot>());
    set_property("master", Value(from));
    set_role(Role::kBackup);
    return;
  }
  throw FtmError(strf("protocol: unknown ctrl kind '", to_string(kind), "'"));
}

// ---------------------------------------------------------------------------
// ProtocolControl face (bricks, failure detector)
// ---------------------------------------------------------------------------

void ProtocolKernel::resume(const RequestKey& key, Value result) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Ctx& ctx = it->second;
  cancel_peer_retry(ctx);
  ctx.waiting = false;
  ctx.set_result(std::move(result));
  advance_phase(ctx);
  advance(ctx);
}

void ProtocolKernel::resume_after(const RequestKey& key, sim::Duration delay,
                                  Value result) {
  if (host() != nullptr && host()->sim().fsim().enabled()) {
    // fsim "timer.arm": same lost-tick model as the peer-retry timer —
    // the resume fires one period late, masked as latency.
    const fsim::Site site{"resume", 0,
                          static_cast<std::int64_t>(host()->sim().now())};
    if (host()->sim().fsim().should_fail(fsim::Point::kTimerArm, site)) {
      delay *= 2;
    }
  }
  if (host() == nullptr) {
    resume(key, std::move(result));
    return;
  }
  const auto handle = next_resume_timer_++;
  PendingResume& pending = resume_timers_[handle];
  pending.key = key;
  pending.result = std::move(result);
  pending.timer = host()->schedule_after(
      delay,
      [this, handle] {
        auto node = resume_timers_.extract(handle);
        resume(node.mapped().key, std::move(node.mapped().result));
      },
      "ftm.resume");
}

void ProtocolKernel::start_forwarded(const PeerMessage& message) {
  ++counters_.forwarded;
  if (blocked_) {
    buffered_forwarded_.push_back(message.payload);
    return;
  }
  start_forwarded_request(message.payload);
}

InFlight ProtocolKernel::peek(const RequestKey& key) const {
  // Lets bricks ask whether a request is already executing here and with
  // what result — an A&LFR follower answers a re-execution request from its
  // own forwarded computation instead of executing twice.
  const auto it = pending_.find(key);
  if (it == pending_.end()) return {};
  return {true, it->second.phase, &it->second.result};
}

void ProtocolKernel::report_fault(const std::string& kind) {
  if (kind == "divergence") ++counters_.divergences;
  if (kind == "assertion_failed") ++counters_.assertion_failures;
  if (kind == "tr_mismatch") ++counters_.tr_mismatches;
  log().info("ftm", composite()->name(), ": fault reported: ", kind);
  if (fault_listener_) fault_listener_(kind);
}

void ProtocolKernel::count_event(Event event) {
  switch (event) {
    case Event::kCheckpointSent: ++counters_.checkpoints_sent; break;
    case Event::kCheckpointApplied: ++counters_.checkpoints_applied; break;
    case Event::kDeltaSent: ++counters_.deltas_sent; break;
    case Event::kFullCheckpointSent: ++counters_.full_checkpoints_sent; break;
    case Event::kResyncRequested: ++counters_.resyncs; break;
    case Event::kNotification: ++counters_.notifications; break;
  }
}

void ProtocolKernel::join() {
  ensure_started("control");
  send_peer({PeerPhase::kCtrl, PeerKind::kJoin, Value::map()});
}

// ---------------------------------------------------------------------------
// Quiescence
// ---------------------------------------------------------------------------

bool ProtocolKernel::quiesce() {
  ensure_started("control");
  blocked_ = true;
  const bool drained = pending_.empty();
  check_drained();
  return drained;
}

void ProtocolKernel::unblock() {
  ensure_started("control");
  blocked_ = false;
  drain_buffers();
}

void ProtocolKernel::check_drained() {
  if (blocked_ && pending_.empty() && quiesce_listener_) quiesce_listener_();
}

void ProtocolKernel::drain_buffers() {
  // Replay buffered traffic in arrival order: forwarded work first (it was
  // accepted by the old configuration's leader), then fresh client requests.
  auto forwarded = std::move(buffered_forwarded_);
  buffered_forwarded_.clear();
  for (const auto& payload : forwarded) {
    if (blocked_) {
      buffered_forwarded_.push_back(payload);
      continue;
    }
    start_forwarded_request(payload);
  }
  auto requests = std::move(buffered_requests_);
  buffered_requests_.clear();
  for (const auto& payload : requests) {
    if (blocked_) {
      buffered_requests_.push_back(payload);
      continue;
    }
    handle_client_request(payload);
  }
}

}  // namespace rcs::ftm
