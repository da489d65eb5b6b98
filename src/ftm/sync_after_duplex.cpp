#include "rcs/ftm/sync_after_duplex.hpp"

namespace rcs::ftm {

BrickStatus SyncAfterDuplexBase::on_peer(const RequestCtx* ctx,
                                         const PeerMessage& message) {
  if (ctx != nullptr) {
    if (message.kind == PeerKind::kExecResult) return handle_exec_result(message);
    return on_solicited(*ctx, message);
  }
  if (message.kind == PeerKind::kExecReq) return handle_exec_request(message);
  return on_unsolicited(message);
}

JoinSnapshot SyncAfterDuplexBase::make_join_snapshot() {
  // Anchor the joiner into the current delta stream: the snapshot carries
  // the capture-side (stream, seq) so checkpoints captured concurrently
  // with the join re-apply idempotently on the joiner.
  JoinSnapshot snapshot;
  if (state_wired()) {
    snapshot = state_manager().export_full();
  } else {
    snapshot.state = Value{};
  }
  snapshot.replies = reply_log().export_all();
  return snapshot;
}

void SyncAfterDuplexBase::apply_join_snapshot(const JoinSnapshot& snapshot) {
  if (snapshot.state && !snapshot.state->is_null()) {
    if (snapshot.ckpt_seq && snapshot.ckpt_stream && state_wired()) {
      state_manager().import_full(snapshot);
    } else {
      restore_state(*snapshot.state);
    }
  }
  if (snapshot.replies) reply_log().import_all(*snapshot.replies);
}

BrickStatus SyncAfterDuplexBase::run_phase(const RequestCtx& ctx) {
  if (ctx.forwarded) return forwarded_after(ctx);

  if (with_assertion_) {
    if (!check_assertion(ctx.request(), ctx.result)) {
      // Assertion failed on this node: re-execute on the other node
      // (distributed-recovery-blocks style, §3.2.1).
      report_fault("assertion_failed");
      const auto& peers = alive_peers();
      if (!peers.empty()) {
        // Re-execute on ONE other node (rotate by attempt so a second peer
        // is tried if the first keeps failing us).
        const auto target =
            peers[static_cast<std::size_t>(ctx.attempt) % peers.size()];
        Value data = Value::map();
        data.set("key", KeyText(ctx.key).view()).set("request", ctx.request());
        send_peer_to(target, {PeerPhase::kAfter, PeerKind::kExecReq, ctx.key,
                              std::move(data)});
        return wait_for(PeerKind::kExecResult);
      }
      return fail_with("assertion failed and no peer for re-execution");
    }
  }
  return master_after(ctx);
}

Value SyncAfterDuplexBase::capture_state() {
  if (!state_wired()) return {};
  return state_manager().get_state();
}

void SyncAfterDuplexBase::restore_state(const Value& state) {
  if (state_wired()) state_manager().set_state(state);
}

BrickStatus SyncAfterDuplexBase::handle_exec_request(
    const PeerMessage& message) {
  // The peer's assertion failed; execute the request here and return our
  // result (plus our state, so a stateful primary can realign after its
  // faulty execution). The response goes to the asker only.
  const Value& data = message.data();
  const RequestKey& key = *message.key;
  const auto asker = message.from;
  if (!with_assertion_ || !server_wired()) {
    // A mixed-configuration window (mid-transition) or a misdirected exec
    // request: this brick cannot re-execute safely. Refuse instead of
    // crashing; the peer fails the request safely.
    Value refusal = Value::map();
    refusal.set("key", data.at("key")).set("ok", false);
    send_peer_to(asker, {PeerPhase::kAfter, PeerKind::kExecResult, key,
                         std::move(refusal)});
    return handled();
  }

  // An LFR follower may have already executed this request through its own
  // forwarded pipeline (or even completed it): answer from that result
  // instead of executing a second time, which would double state mutations.
  Value local_result;
  if (const Value* logged = reply_log().lookup(key)) {
    local_result = logged->at("result");
  } else {
    const InFlight peeked = control().peek(key);
    if (peeked.found) {
      if (peeked.phase >= 2 && !peeked.result->is_null()) {
        local_result = *peeked.result;
      } else {
        // Our own execution of this request is still in flight; answer once
        // it completes rather than executing a second time.
        return defer();
      }
    }
  }
  if (!local_result.is_null()) {
    const bool ok = check_assertion(data.at("request"), local_result);
    Value reply = Value::map();
    reply.set("key", data.at("key"))
        .set("ok", ok)
        .set("result", local_result)
        .set("state", capture_state());
    send_peer_to(asker, {PeerPhase::kAfter, PeerKind::kExecResult, key,
                         std::move(reply)});
    return handled();
  }
  // At-most-once for re-executions: a retransmitted exec_req (its response
  // was lost) must answer from the recorded outcome, not execute again.
  const RequestKey exec_key{key.client, key.id, /*exec=*/true};
  if (const Value* served = reply_log().lookup(exec_key)) {
    send_peer_to(asker,
                 {PeerPhase::kAfter, PeerKind::kExecResult, key, *served});
    return handled();
  }

  Execution outcome = run_server(data.at("request"));
  bool ok = true;
  if (with_assertion_) {
    ok = check_assertion(data.at("request"), outcome.result);
  }
  Value reply = Value::map();
  reply.set("key", data.at("key"))
      .set("ok", ok)
      .set("result", std::move(outcome.result))
      .set("state", capture_state());
  reply_log().record(exec_key, reply);
  send_peer_to(asker, {PeerPhase::kAfter, PeerKind::kExecResult, key,
                       std::move(reply)});
  return handled();
}

BrickStatus SyncAfterDuplexBase::handle_exec_result(
    const PeerMessage& message) {
  const Value& data = message.data();
  if (!data.at("ok").as_bool()) {
    report_fault("both_replicas_faulty");
    return fail_with("assertion failed and peer could not re-execute");
  }
  // Adopt the peer's verified result (and state, when transferable), then
  // re-run the After phase: the assertion now passes and the normal
  // agreement action (checkpoint / notification) proceeds.
  if (data.has("state") && !data.at("state").is_null()) {
    restore_state(data.at("state"));
  }
  return again_with(data.at("result"));
}

}  // namespace rcs::ftm
