// syncAfter brick for Leader-Follower Replication.
//
// Leader ("Notify Follower", Table 2): after processing, send the follower a
// digest of the reply (fire-and-forget) so it can confirm agreement.
// Follower ("Process notification"): a forwarded context waits for the
// leader's notification, compares digests, and reports a divergence to the
// monitoring path when they differ — which is exactly what happens when a
// non-deterministic application is (mis)deployed under LFR (Table 1's
// determinism requirement, observed at runtime).
//
// With with_assertion=true this is A&LFR's syncAfter (assert, re-execute on
// the follower on failure, then notify).
#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/sync_after_duplex.hpp"

namespace rcs::ftm {

namespace {

class SyncAfterLfr final : public SyncAfterDuplexBase {
 public:
  explicit SyncAfterLfr(bool with_assertion)
      : SyncAfterDuplexBase(with_assertion) {}

 protected:
  BrickStatus master_after(const RequestCtx& ctx) override {
    if (!peer_available(ctx)) return done();
    Value data = Value::map();
    data.set("key", KeyText(ctx.key).view()).set("digest", digest(ctx.result));
    send_peer({PeerPhase::kAfter, PeerKind::kNotify, ctx.key, std::move(data)});
    count_event(Event::kNotification);
    return done();  // fire-and-forget: the client reply is not gated
  }

  BrickStatus on_solicited(const RequestCtx& ctx,
                           const PeerMessage& message) override {
    // Follower received the leader's notification for its forwarded context.
    if (message.kind == PeerKind::kNotify) {
      const auto leader_digest = message.data().at("digest").as_int();
      if (leader_digest != digest(ctx.result)) {
        report_fault("divergence");
      }
    }
    return done();
  }

  BrickStatus on_unsolicited(const PeerMessage& message) override {
    // A notification can overtake its forwarded request on a jittery link;
    // park it in the kernel's stash until the context reaches After.
    if (message.kind == PeerKind::kNotify) return stash();
    return handled();
  }

  BrickStatus forwarded_after(const RequestCtx& ctx) override {
    if (with_assertion()) {
      // A&LFR follower: validate the local result with the assertion and
      // complete immediately. Waiting for the leader's notification would
      // deadlock when the leader itself is waiting for our re-execution of
      // a result that failed ITS assertion.
      if (!check_assertion(ctx.request(), ctx.result)) {
        report_fault("assertion_failed");
      }
      return done();
    }
    if (ctx.attempt >= 3) {
      // The leader's notification was lost (or the leader moved on); keep
      // our own result rather than waiting forever.
      return done();
    }
    return wait_for(PeerKind::kNotify);
  }
};

comp::ComponentTypeInfo make_type(const char* type_name, bool with_assertion) {
  comp::ComponentTypeInfo info;
  info.type_name = type_name;
  info.description = with_assertion
                         ? "syncAfter: assert output, then LFR notification"
                         : "syncAfter: LFR follower notification";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kSyncAfter}};
  info.references = {{"control", iface::kProtocolControl},
                     {"replyLog", iface::kReplyLog},
                     {"state", iface::kStateManager, /*required=*/false}};
  if (with_assertion) {
    info.references.push_back({"server", iface::kServer, /*required=*/false});
    info.references.push_back({"assertion", iface::kAssertion});
  }
  info.code_size = with_assertion ? 20'000 : 14'000;
  info.source_file = "src/ftm/brick_sync_after_lfr.cpp";
  info.factory = [with_assertion] {
    return std::make_unique<SyncAfterLfr>(with_assertion);
  };
  SyncAfterDuplexBase::kSlots.check(info);
  return info;
}

}  // namespace

comp::ComponentTypeInfo sync_after_lfr_type() {
  return make_type(brick::kSyncAfterLfr, /*with_assertion=*/false);
}

comp::ComponentTypeInfo sync_after_lfr_assert_type() {
  return make_type(brick::kSyncAfterLfrAssert, /*with_assertion=*/true);
}

}  // namespace rcs::ftm
