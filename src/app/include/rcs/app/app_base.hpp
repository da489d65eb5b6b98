// Application server components.
//
// An application is the FTM composite's `server` child (the base level of
// the paper's two-layer architecture, §2). It provides three services, each
// reached through its C++ face (ftm/interfaces.hpp), which the bricks
// resolve when their wires are made:
//   - "srv"   (rcs.Server):       process(request) -> {result, cpu}
//   - "state" (rcs.StateManager): get_state, set_state      [if accessible]
//   - "assert"(rcs.Assertion):    check(request, result) -> bool [if provided]
// The request, result, state and delta it handles are Values.
//
// The state face also implements the incremental-checkpoint protocol used
// by the PBR syncAfter brick: capture_delta / ack_delta on the primary side,
// apply_delta on the backup side, and export_full / import_full for join
// snapshots. All sequence bookkeeping lives here (generic); applications that
// can track dirty keys override the delta_* hooks, the rest fall back to
// full-state captures tagged with the same sequence numbers.
//
// Captured deltas cover everything mutated since the last ACKNOWLEDGED
// checkpoint (not the last captured one), so a retransmitted checkpoint is
// always a superset of what the backup may have missed. Delta streams are
// identified by a stream id derived from (host, host epoch, nonce): a backup
// only applies deltas from the stream it is tracking and asks for a full
// resync on a gap or an unknown stream — promotion and rejoin stay correct.
//
// process() runs the primary variant; process_alternate the diversified
// alternate (recovery blocks). Both charge the host's CPU meter and pass
// the result through the host's hardware-fault state — this is where injected
// transient/permanent value faults corrupt computations (§2's FT dimension).
// The assertion is the paper's "application defined assertion" hook: a safety
// property evaluated on (request, result) pairs, exported to the meta level
// through a clearly identified hook without breaking separation of concerns.
#pragma once

#include <cstdint>
#include <string>

#include "rcs/component/component.hpp"
#include "rcs/ftm/app_spec.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::app {

class AppServerBase : public comp::Component,
                      public ftm::Server,
                      public ftm::StateManager,
                      public ftm::Assertion {
 public:
  static constexpr sim::Duration kDefaultCpuPerRequest = 5 * sim::kMillisecond;

  // --- rcs.Server -------------------------------------------------------
  ftm::Execution process(const Value& request) final;
  ftm::Execution process_alternate(const Value& request) final;

  // --- rcs.StateManager -------------------------------------------------
  Value get_state() final { return state_get(); }
  void set_state(const Value& state) final { state_set(state); }
  ftm::StateCapture capture_delta() final;
  void ack_delta(std::uint64_t seq) final;
  ftm::DeltaApply apply_delta(const ftm::StateCapture& capture) final;
  ftm::JoinSnapshot export_full() final;
  void import_full(const ftm::JoinSnapshot& snapshot) final;

  // --- rcs.Assertion ----------------------------------------------------
  bool check(const Value& request, const Value& result) final {
    return assertion(request, result);
  }

  /// Attach a content checksum to a result map so that generic executable
  /// assertions can detect value corruption (the "check" member).
  [[nodiscard]] static Value with_checksum(Value result);
  /// Verify the checksum attached by with_checksum.
  [[nodiscard]] static bool checksum_ok(const Value& result);

 protected:
  /// Properties are read when they are set and on start, not per request.
  /// An override calls the base first.
  void on_start() override;
  void on_property_changed(const std::string& key) override;

  /// Business logic: request -> raw result (before fault injection).
  virtual Value compute(const Value& request) = 0;

  /// Diversified alternate implementation (recovery blocks' second version).
  /// Defaults to the primary; applications declaring has_alternate override
  /// it with an independently written path.
  virtual Value compute_alternate(const Value& request) { return compute(request); }

  /// State capture/restore; default implementations reject (stateless or
  /// state-inaccessible applications simply don't declare the service).
  virtual Value state_get();
  virtual void state_set(const Value& state);

  // --- Incremental checkpoint hooks ---------------------------------------
  /// Whether the application tracks dirty keys; false means capture_delta
  /// falls back to a full state_get tagged with the checkpoint sequence.
  [[nodiscard]] virtual bool supports_state_delta() const { return false; }
  /// Capture everything mutated since the last acknowledged checkpoint.
  /// Must NOT forget the tracked mutations: retransmissions re-capture.
  virtual Value delta_capture() { return {}; }
  /// Merge a delta produced by delta_capture into the local state.
  virtual void delta_apply(const Value& delta) { (void)delta; }
  /// A checkpoint up to `seq` was acknowledged: forget mutations captured in
  /// checkpoints <= seq (mutations recorded after that capture must survive).
  virtual void delta_ack(std::uint64_t seq) { (void)seq; }
  /// Forget all dirty tracking (after a full state transfer).
  virtual void delta_clear() {}

  /// Epoch to tag a mutation with: the sequence number the NEXT capture will
  /// use. delta_ack(seq) then only clears mutations tagged <= seq.
  [[nodiscard]] std::uint64_t mutation_epoch() const { return capture_seq_ + 1; }

  /// Safety assertion over a (request, result) pair; default accepts all.
  virtual bool assertion(const Value& request, const Value& result);

 private:
  /// Charge the request's CPU and pass its result through the host's
  /// hardware-fault state.
  ftm::Execution finish(Value result);
  void read_cpu_per_request();
  [[nodiscard]] std::uint64_t make_stream_id();

  /// CPU cost of one request on the reference host (the "cpu_us" property).
  sim::Duration cpu_per_request_{kDefaultCpuPerRequest};

  // Capture side (primary).
  std::uint64_t stream_{0};       // 0 = not capturing yet; lazily assigned
  std::uint64_t stream_nonce_{0}; // distinguishes streams within one epoch
  std::uint64_t capture_seq_{0};
  std::uint64_t acked_seq_{0};
  // Apply side (backup).
  std::uint64_t applied_stream_{0};
  std::uint64_t applied_seq_{0};
};

/// Standard port sets for application types.
[[nodiscard]] std::vector<comp::PortSpec> app_services(bool state_access,
                                                       bool has_assertion);

}  // namespace rcs::app
