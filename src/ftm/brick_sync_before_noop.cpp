// syncBefore brick for strategies with no server-coordination phase
// (PBR, TR, A&PBR: Table 2's "Nothing" entries in the Before column).
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class SyncBeforeNoop final : public FtmBrick {
 public:
  BrickStatus run_phase(const RequestCtx& /*ctx*/) override { return done(); }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();  // nothing to coordinate
  }
};

}  // namespace

comp::ComponentTypeInfo sync_before_noop_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kSyncBeforeNoop;
  info.description = "syncBefore: no pre-processing coordination";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kSyncBefore}};
  info.references = {{"control", iface::kProtocolControl}};
  info.code_size = 6'000;
  info.source_file = "src/ftm/brick_sync_before_noop.cpp";
  info.factory = [] { return std::make_unique<SyncBeforeNoop>(); };
  BrickSlots{}.check(info);
  return info;
}

}  // namespace rcs::ftm
