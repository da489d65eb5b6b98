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
  Value run_phase(const Value& ctx) override {
    // Follower executing a forwarded request: the "receive" already
    // happened; nothing more to coordinate.
    if (ctx.at("forwarded").as_bool()) return done();
    if (is_master(ctx) && peer_available(ctx)) {
      Value data = Value::map();
      data.set("key", ctx.at("key"))
          .set("client", ctx.at("client"))
          .set("id", ctx.at("id"))
          .set("request", ctx.at("request"));
      // Thread the trace id into the forward so the follower's pipeline
      // spans land on the same trace as the leader's.
      if (ctx.has("trace")) data.set("trace", ctx.at("trace"));
      send_peer("before", "request", std::move(data));
    }
    return done();
  }

  Value on_peer(const Value& ctx, const Value& message) override {
    if (ctx.is_null() && message.at("kind").as_string() == "request") {
      // Unsolicited forward from the leader: start our own pipeline.
      control().start_forwarded(message.at("data"));
    }
    return Value::map();
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
  return info;
}

}  // namespace rcs::ftm
