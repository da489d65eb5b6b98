// proceed brick: Recovery Blocks (§3.2.1's distributed-recovery-blocks
// discussion and §2's development-fault class).
//
// The primary variant runs first; its output is checked by the acceptance
// test (the application-defined assertion). On rejection the state is
// restored and the DIVERSIFIED alternate variant runs — design diversity is
// what tolerates development faults, which neither repetition (TR: the bug
// reproduces) nor identical-replica re-execution (A&Duplex) can mask.
// Per the paper, "for RB, an update consists of changing the acceptance
// test": swapping the application's assertion (or this brick, via
// refresh_brick) upgrades the coverage without touching the FTM.
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class ProceedRb final : public FtmBrick {
 public:
  /// In proceed_rb_type's reference order.
  static constexpr BrickSlots kSlots{
      .control = 0, .server = 1, .state = 3, .assertion = 2};

  ProceedRb() : FtmBrick(kSlots) {}

  BrickStatus run_phase(const RequestCtx& ctx) override { return process(ctx); }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }

 private:
  BrickStatus process(const RequestCtx& ctx) {
    const Value& request = ctx.request();
    const bool has_state = state_wired();

    Value snapshot;
    if (has_state) snapshot = state_manager().get_state();

    Execution primary = run_server(request);
    sim::Duration cpu = primary.cpu;

    Value result;
    if (check_assertion(request, primary.result)) {
      result = std::move(primary.result);
    } else {
      // Acceptance test rejected the primary variant: restore the state and
      // fall back to the alternate.
      report_fault("acceptance_failed");
      if (has_state) state_manager().set_state(snapshot);
      Execution alternate = server().process_alternate(request);
      cpu += alternate.cpu;
      if (!check_assertion(request, alternate.result)) {
        report_fault("both_variants_rejected");
        return fail_with("recovery blocks: both variants failed acceptance");
      }
      result = std::move(alternate.result);
    }
    resume_after(ctx.key, cpu, std::move(result));
    return wait_for_resume();
  }
};

}  // namespace

comp::ComponentTypeInfo proceed_rb_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kProceedRb;
  info.description = "proceed: recovery blocks (acceptance test + alternate)";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kProceed}};
  info.references = {{"control", iface::kProtocolControl},
                     {"server", iface::kServer},
                     {"assertion", iface::kAssertion},
                     {"state", iface::kStateManager, /*required=*/false}};
  info.code_size = 15'000;
  info.source_file = "src/ftm/brick_proceed_rb.cpp";
  info.factory = [] { return std::make_unique<ProceedRb>(); };
  ProceedRb::kSlots.check(info);
  return info;
}

}  // namespace rcs::ftm
