// proceed brick: Time Redundancy ("capture state / compute twice, compare /
// restore state", Table 2 and §3.2.1).
//
// The request is processed twice with the application state restored between
// runs; if the two results differ (a transient value fault hit one of them),
// the state is restored again and a third run votes 2-out-of-3. No majority
// means the fault was not transient — the request fails. Following §5.2, the
// whole TR behaviour lives in this single proceed component so that
// LFR -> LFR⊕TR replaces exactly one brick.
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"

namespace rcs::ftm {

namespace {

class ProceedTr final : public FtmBrick {
 public:
  /// In proceed_tr_type's reference order.
  static constexpr BrickSlots kSlots{.control = 0, .server = 1, .state = 2};

  ProceedTr() : FtmBrick(kSlots) {}

  BrickStatus run_phase(const RequestCtx& ctx) override { return process(ctx); }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }

 private:
  BrickStatus process(const RequestCtx& ctx) {
    const Value& request = ctx.request();
    const bool has_state = state_wired();

    // Capture state before the first execution (Table 2, Before column for
    // TR; folded into proceed per §5.2).
    Value snapshot;
    if (has_state) snapshot = state_manager().get_state();

    Execution first = run_server(request);
    sim::Duration cpu = first.cpu;

    if (has_state) state_manager().set_state(snapshot);
    Execution second = run_server(request);
    cpu += second.cpu;

    Value result;
    if (digest(first.result) == digest(second.result)) {
      result = std::move(second.result);
    } else {
      // Results differ: transient fault suspected. Third run, majority vote.
      report_fault("tr_mismatch");
      if (has_state) state_manager().set_state(snapshot);
      const Execution third = run_server(request);
      cpu += third.cpu;
      const auto d1 = digest(first.result);
      const auto d2 = digest(second.result);
      const auto d3 = digest(third.result);
      if (d3 == d1) {
        result = std::move(first.result);
      } else if (d3 == d2) {
        result = std::move(second.result);
      } else {
        // Three distinct results: the fault is not transient (permanent
        // fault or non-deterministic application) — report the evidence to
        // the monitoring path and fail the request.
        report_fault("tr_no_majority");
        return fail_with(
            "time redundancy: no majority among three executions");
      }
    }
    resume_after(ctx.key, cpu, std::move(result));
    return wait_for_resume();
  }
};

}  // namespace

comp::ComponentTypeInfo proceed_tr_type() {
  comp::ComponentTypeInfo info;
  info.type_name = brick::kProceedTr;
  info.description = "proceed: time redundancy (repeat, compare, vote)";
  info.category = comp::TypeCategory::kBrick;
  info.services = {{"in", iface::kProceed}};
  info.references = {{"control", iface::kProtocolControl},
                     {"server", iface::kServer},
                     {"state", iface::kStateManager, /*required=*/false}};
  info.code_size = 16'000;
  info.source_file = "src/ftm/brick_proceed_tr.cpp";
  info.factory = [] { return std::make_unique<ProceedTr>(); };
  ProceedTr::kSlots.check(info);
  return info;
}

}  // namespace rcs::ftm
