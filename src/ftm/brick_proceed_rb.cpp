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
  BrickStatus run_phase(const RequestCtx& ctx) override { return process(ctx); }
  BrickStatus on_peer(const RequestCtx* /*ctx*/,
                      const PeerMessage& /*message*/) override {
    return handled();
  }

 private:
  bool accept(const Value& request, const Value& result) {
    return call("assertion", "check",
                Value::map().set("request", request).set("result", result))
        .as_bool();
  }

  BrickStatus process(const RequestCtx& ctx) {
    const Value& request = ctx.request();
    const bool has_state = wired("state");

    Value snapshot;
    if (has_state) snapshot = call("state", "get");

    const Value primary = run_server(request);
    std::int64_t cpu = primary.at("cpu_us").as_int();

    Value result;
    if (accept(request, primary.at("result"))) {
      result = primary.at("result");
    } else {
      // Acceptance test rejected the primary variant: restore the state and
      // fall back to the alternate.
      report_fault("acceptance_failed");
      if (has_state) call("state", "set", snapshot);
      const Value alternate =
          call("server", "process_alt", Value::map().set("request", request));
      cpu += alternate.at("cpu_us").as_int();
      if (!accept(request, alternate.at("result"))) {
        report_fault("both_variants_rejected");
        return fail_with("recovery blocks: both variants failed acceptance");
      }
      result = alternate.at("result");
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
  return info;
}

}  // namespace rcs::ftm
