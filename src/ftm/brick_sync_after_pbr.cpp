// syncAfter brick for Primary-Backup Replication.
//
// Primary ("Checkpoint to Backup", Table 2): after processing, ship the
// application state and the reply log to the backup and wait for its ack —
// only then answer the client, so a failover never loses an acknowledged
// request. Backup ("Process checkpoint"): apply the state, import the reply
// log, ack.
//
// The same class, constructed with with_assertion=true, is the A&PBR
// composition's syncAfter: assert the output first (re-executing on the
// backup when the assertion fails), then checkpoint. This is why
// PBR -> A&PBR is a one-component differential transition.
#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/sync_after_duplex.hpp"

namespace rcs::ftm {

namespace {

class SyncAfterPbr final : public SyncAfterDuplexBase {
 public:
  explicit SyncAfterPbr(bool with_assertion)
      : SyncAfterDuplexBase(with_assertion) {}

 protected:
  BrickStatus master_after(const RequestCtx& ctx) override {
    const auto& group = alive_peers();
    if (group.empty() || !peer_available(ctx)) return done();  // master-alone
    Checkpoint ckpt;
    ckpt.delta = delta_;
    if (delta_) {
      // Incremental checkpoint: only the state mutated since the backup's
      // last ack, plus the reply-log entries it has not acknowledged. A
      // retransmission (kernel retry) re-captures, which widens the delta —
      // never narrows it — so the backup can always catch up or detect a gap.
      if (state_wired()) {
        ckpt.capture = state_manager().capture_delta();
        count_event(ckpt.capture->full ? Event::kFullCheckpointSent
                                       : Event::kDeltaSent);
      }
      ckpt.replies = reply_log().export_since();
    } else {
      ckpt.state = capture_state();
      ckpt.replies = reply_log().export_all();
      count_event(Event::kFullCheckpointSent);
    }
    // The current request's reply is recorded in the reply log only after
    // this phase completes, so ship it explicitly: at-most-once must hold on
    // the backup even if we crash right after answering the client. It is
    // ctx's reply cell, which the backup's log, the primary's log and the
    // client reply all hold by handle.
    ckpt.pending_reply = ctx.reply();
    ReplicaMessage message{PeerPhase::kAfter, PeerKind::kCheckpoint, ctx.key,
                           std::move(ckpt)};
    if (auto* fsim = fsim_registry()) {
      // fsim "ckpt.serialize": the capture/encode of this checkpoint fails.
      // Skip the send but wait as usual — the kernel's peer-retry loop
      // re-runs this phase after retry_us and re-captures (the delta only
      // widens), so the failure is masked at the cost of one retry interval.
      const fsim::Site site{delta_ ? "primary/delta" : "primary/full",
                            body_size(message), fsim_now()};
      if (fsim->should_fail(fsim::Point::kCkptSerialize, site)) {
        trace_instant("fsim.ckpt.serialize", trace_of(ctx));
        return wait_for_group(PeerKind::kCheckpointAck,
                              static_cast<int>(group.size()));
      }
    }
    if (tracing()) {
      trace_instant("ckpt.send", trace_of(ctx),
                    static_cast<std::int64_t>(body_size(message)));
    }
    send_peer(std::move(message));
    count_event(Event::kCheckpointSent);
    // Wait for every live backup to acknowledge before answering the client
    // (no acknowledged request can be lost to a failover).
    return wait_for_group(PeerKind::kCheckpointAck,
                          static_cast<int>(group.size()));
  }

  BrickStatus on_solicited(const RequestCtx& /*ctx*/,
                           const PeerMessage& message) override {
    if (message.kind == PeerKind::kCheckpointAck) {
      // The whole group confirmed this checkpoint: it will never need to be
      // retransmitted, so drop its dirty keys and reply-log entries from
      // future deltas. (All acks of one round echo the same seq/upto.)
      const auto& ack = message.body<CheckpointAck>();
      if (ack.seq && state_wired()) {
        state_manager().ack_delta(static_cast<std::uint64_t>(*ack.seq));
      }
      if (ack.upto) reply_log().ack_export(*ack.upto);
      return done();
    }
    return done();  // anything else while waiting: treat as completion
  }

  BrickStatus on_unsolicited(const PeerMessage& message) override {
    if (message.kind != PeerKind::kCheckpoint) return handled();
    const auto& ckpt = message.body<Checkpoint>();
    const auto from = message.from;
    if (ckpt.delta) return apply_delta_checkpoint(message, ckpt);
    // Full-state checkpoint (delta knob off on the primary).
    if (auto* fsim = fsim_registry()) {
      // fsim "ckpt.apply" (full path): the apply fails before any state is
      // touched. No ack goes back, so the primary's retry loop re-sends
      // the full snapshot — masked at the cost of one retry interval.
      const fsim::Site site{"backup/full", body_size(message.envelope),
                            fsim_now()};
      if (fsim->should_fail(fsim::Point::kCkptApply, site)) {
        trace_instant("fsim.ckpt.apply", 0, from);
        return handled();
      }
    }
    if (ckpt.state && !ckpt.state->is_null()) restore_state(*ckpt.state);
    reply_log().import_all(ckpt.replies);
    record_pending_reply(message, ckpt);
    count_event(Event::kCheckpointApplied);
    trace_instant("ckpt.apply", 0, from);
    send_ack(message, CheckpointAck{});
    return handled();
  }

  BrickStatus forwarded_after(const RequestCtx& /*ctx*/) override {
    // PBR backups never run forwarded pipelines; nothing to synchronize.
    return done();
  }

 private:
  // Incremental checkpoints unless the "delta" property is false, read
  // when it is set rather than on every request.
  void on_start() override { read_delta(); }
  void on_property_changed(const std::string& key) override {
    if (key == "delta") read_delta();
  }
  void read_delta() {
    const Value v = property("delta");
    delta_ = !v.is_bool() || v.as_bool();
  }

  void record_pending_reply(const PeerMessage& message,
                            const Checkpoint& ckpt) {
    reply_log().record(*message.key, ckpt.pending_reply);
  }

  void send_ack(const PeerMessage& message, CheckpointAck ack) {
    send_peer_to(message.from, {PeerPhase::kAfter, PeerKind::kCheckpointAck,
                                *message.key, std::move(ack)});
  }

  BrickStatus apply_delta_checkpoint(const PeerMessage& message,
                                     const Checkpoint& ckpt) {
    const auto from = message.from;
    CheckpointAck ack;
    bool ok = true;
    if (auto* fsim = fsim_registry()) {
      // fsim "ckpt.apply" (delta path): the apply fails mid-import, as if
      // this backup's state diverged. Escalate exactly like a detected gap:
      // request a full resync through the join path and withhold the ack.
      const fsim::Site site{"backup/delta", body_size(message.envelope),
                            fsim_now()};
      if (fsim->should_fail(fsim::Point::kCkptApply, site)) {
        trace_instant("fsim.ckpt.apply", 0, from);
        ok = false;
      }
    }
    if (ok && ckpt.capture && state_wired()) {
      ok = state_manager().apply_delta(*ckpt.capture) != DeltaApply::kResync;
      if (ok) ack.seq = static_cast<std::int64_t>(ckpt.capture->seq);
    }
    if (ok) {
      ok = reply_log().import_delta(ckpt.replies);
      if (ok) ack.upto = ckpt.replies.upto;
    }
    if (!ok) {
      // We missed checkpoints (restart, loss burst, or a new primary's
      // stream): ask for a full resync through the join path and withhold
      // the ack — the primary's retry loop re-sends once we caught up.
      count_event(Event::kResyncRequested);
      trace_instant("ckpt.resync", 0, from);
      control().join();
      return handled();
    }
    record_pending_reply(message, ckpt);
    count_event(Event::kCheckpointApplied);
    trace_instant("ckpt.apply", 0, from);
    send_ack(message, ack);
    return handled();
  }

  bool delta_{true};
};

comp::ComponentTypeInfo make_type(const char* type_name, bool with_assertion) {
  comp::ComponentTypeInfo info;
  info.type_name = type_name;
  info.description = with_assertion
                         ? "syncAfter: assert output, then PBR checkpoint"
                         : "syncAfter: PBR checkpoint to backup";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kSyncAfter}};
  info.references = {{"control", iface::kProtocolControl},
                     {"replyLog", iface::kReplyLog},
                     {"state", iface::kStateManager, /*required=*/false}};
  if (with_assertion) {
    // Only the asserting variant re-executes requests, locally or for a peer.
    info.references.push_back({"server", iface::kServer, /*required=*/false});
    info.references.push_back({"assertion", iface::kAssertion});
  }
  // Incremental checkpoints by default; the deployment script flips this off
  // when the FtmConfig asks for full-state checkpointing.
  info.default_properties.set("delta", true);
  info.code_size = with_assertion ? 22'000 : 18'000;
  info.source_file = "src/ftm/brick_sync_after_pbr.cpp";
  info.factory = [with_assertion] {
    return std::make_unique<SyncAfterPbr>(with_assertion);
  };
  SyncAfterDuplexBase::kSlots.check(info);
  return info;
}

}  // namespace

comp::ComponentTypeInfo sync_after_pbr_type() {
  return make_type(brick::kSyncAfterPbr, /*with_assertion=*/false);
}

comp::ComponentTypeInfo sync_after_pbr_assert_type() {
  return make_type(brick::kSyncAfterPbrAssert, /*with_assertion=*/true);
}

}  // namespace rcs::ftm
