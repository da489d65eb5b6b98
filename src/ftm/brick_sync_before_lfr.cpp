// syncBefore brick for Leader-Follower Replication.
//
// Leader side ("Forward request", Table 2): every client request is forwarded
// to the follower before processing, so both replicas compute it.
// Follower side ("Receive request"): the unsolicited forward starts a
// forwarded pipeline through the kernel; the follower computes the request
// itself but never answers the client.
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class SyncBeforeLfr final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& ctx) override {
    // Follower executing a forwarded request: the "receive" already
    // happened; nothing more to coordinate.
    if (ctx.forwarded) return done();
    if (is_master(ctx) && peer_available(ctx)) {
      Value data = Value::map();
      data.set("key", KeyText(ctx.key).view())
          .set("client", ctx.key.client)
          .set("id", static_cast<std::int64_t>(ctx.key.id))
          .set("request", ctx.request());
      // Thread the trace id into the forward so the follower's pipeline
      // spans land on the same trace as the leader's.
      if (ctx.trace != 0) data.set("trace", static_cast<std::int64_t>(ctx.trace));
      send_peer(
          {PeerPhase::kBefore, PeerKind::kRequest, ctx.key, std::move(data)});
    }
    return done();
  }

  BrickStatus on_peer(const RequestCtx* ctx,
                      const PeerMessage& message) override {
    if (ctx == nullptr && message.kind == PeerKind::kRequest) {
      // Unsolicited forward from the leader: start our own pipeline.
      control().start_forwarded(message);
    }
    return handled();
  }
};

}  // namespace

comp::ComponentTypeInfo sync_before_lfr_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kSyncBeforeLfr;
  info.description = "syncBefore: LFR request forwarding / reception";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kSyncBefore}};
  info.references = {{"control", iface::kProtocolControl}};
  info.code_size = 12'000;
  info.source_file = "src/ftm/brick_sync_before_lfr.cpp";
  info.factory = [] { return std::make_unique<SyncBeforeLfr>(); };
  BrickSlots{}.check(info);
  return info;
}

}  // namespace rcs::ftm
