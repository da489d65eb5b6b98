// syncAfter brick with no agreement-coordination phase (single-host TR).
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class SyncAfterNoop final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& /*ctx*/) override { return done(); }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }
};

}  // namespace

comp::ComponentTypeInfo sync_after_noop_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kSyncAfterNoop;
  info.description = "syncAfter: no post-processing coordination";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kSyncAfter}};
  info.references = {{"control", iface::kProtocolControl}};
  info.code_size = 6'000;
  info.source_file = "src/ftm/brick_sync_after_noop.cpp";
  info.factory = [] { return std::make_unique<SyncAfterNoop>(); };
  BrickSlots{}.check(info);
  return info;
}

}  // namespace rcs::ftm
