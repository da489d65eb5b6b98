// proceed brick: plain single execution ("Compute", Table 2).
//
// Runs the request once through the server and resumes the pipeline after the
// CPU time the computation cost, so processing latency shows up on the
// virtual clock (and in the per-FTM resource measurements).
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class ProceedCompute final : public FtmBrick {
 public:
  /// In proceed_compute_type's reference order.
  static constexpr BrickSlots kSlots{.control = 0, .server = 1};

  ProceedCompute() : FtmBrick(kSlots) {}

  BrickStatus run_phase(const RequestCtx& ctx) override {
    Execution outcome = run_server(ctx.request());
    resume_after(ctx.key, outcome.cpu, std::move(outcome.result));
    return wait_for_resume();  // timer wait; control().resume_after fires it
  }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }
};

}  // namespace

comp::ComponentTypeInfo proceed_compute_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kProceedCompute;
  info.description = "proceed: single execution of the request";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kProceed}};
  info.references = {{"control", iface::kProtocolControl},
                     {"server", iface::kServer}};
  info.code_size = 8'000;
  info.source_file = "src/ftm/brick_proceed_compute.cpp";
  info.factory = [] { return std::make_unique<ProceedCompute>(); };
  ProceedCompute::kSlots.check(info);
  return info;
}

}  // namespace rcs::ftm
