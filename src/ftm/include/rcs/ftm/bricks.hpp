// Variable-feature bricks of the Before-Proceed-After scheme (§4, Table 2).
//
// Each brick is a small *stateless* component filling one slot of the FTM
// composite; differential transitions replace exactly these (§5.2). The
// kernel drives a brick through its Brick face (interfaces.hpp), resolved
// when the slot's wire is made:
//   run_phase(const RequestCtx&)                        Before / Proceed /
//                                                       After, by slot
//   on_peer(const RequestCtx* | null, const PeerMessage&)
// each returning a BrickStatus — see protocol.hpp; the helpers below build
// them (done, wait_for, wait_for_resume, again_with, fail_with; handled,
// stash, defer). The
// ctx is typed fields (key, client, id, request(), result, forwarded, role,
// peer_alive, expect, attempt, trace) and a message carries its sender
// beside its payload. A brick reaches the kernel and the reply log back
// through its "control" and "replyLog" references, typed as the
// ProtocolControl and ReplyLog faces, and the application through its
// "server", "state" and "assertion" references, typed as the Server,
// StateManager and Assertion faces; the helpers below wrap them, calling
// each reference by the slot its type declares in BrickSlots. On
// group-membership changes and retransmission
// timeouts the kernel simply re-runs the waiting phase (ctx.attempt counts
// them), so bricks stay stateless.
//
//   FTM slot content (Table 2):
//     PBR  primary:  -            / compute / checkpoint to backup
//     PBR  backup:   -            / -       / process checkpoint
//     LFR  leader:   forward req  / compute / notify follower
//     LFR  follower: receive req  / compute / process notification
//     TR:            capture state/ compute x2(+1), compare / restore state
//     A&Duplex:      -            / compute / assert output (+ re-exec on peer)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

/// Where a brick type declares each reference the FtmBrick helpers call: its
/// index in the type's ComponentTypeInfo::references, or kAbsent.
struct BrickSlots {
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  std::size_t control{0};
  std::size_t reply_log{kAbsent};
  std::size_t server{kAbsent};
  std::size_t state{kAbsent};
  std::size_t assertion{kAbsent};

  /// The check a brick type's slots get when the type is registered (see
  /// check_slots).
  void check(const comp::ComponentTypeInfo& info) const {
    check_slots(info, {{control, "control"},
                       {reply_log, "replyLog"},
                       {server, "server"},
                       {state, "state"},
                       {assertion, "assertion"}});
  }
};

/// Common helpers for brick implementations. Bricks keep NO per-request
/// state: everything flows through the RequestCtx and the kernel's stash.
class FtmBrick : public comp::Component, public Brick {
 public:
  /// Only the After slot is asked for join snapshots; a brick with nothing
  /// to ship answers an empty one and ignores the peer's.
  JoinSnapshot make_join_snapshot() override { return {}; }
  void apply_join_snapshot(const JoinSnapshot& /*snapshot*/) override {}

 protected:
  /// A brick whose type declares its references in `slots`; only "control",
  /// in slot 0, by default.
  explicit FtmBrick(const BrickSlots& slots = {}) : slots_(slots) {}

  void* resolve_face(const comp::PortSpec& reference,
                     comp::Component& target) override {
    return typed_face(reference, target);
  }

  // --- Status -------------------------------------------------------------
  using Verdict = BrickStatus::Verdict;
  [[nodiscard]] static BrickStatus status(Verdict verdict) {
    BrickStatus answer;
    answer.verdict = verdict;
    return answer;
  }
  [[nodiscard]] static BrickStatus done() { return status(Verdict::kDone); }
  /// Wait for a peer message of `kind`.
  [[nodiscard]] static BrickStatus wait_for(PeerKind kind) {
    return wait_for_group(kind, 1);
  }
  /// Wait for the kernel's resume_after (a compute timer).
  [[nodiscard]] static BrickStatus wait_for_resume() {
    return wait_for_group(PeerKind::kNone, 1);
  }
  /// Wait for `count` matching peer messages, one per group member
  /// (checkpoint acks from N backups). count <= 0 completes immediately.
  [[nodiscard]] static BrickStatus wait_for_group(PeerKind kind, int count) {
    BrickStatus wait = status(Verdict::kWait);
    wait.expect = kind;
    wait.expect_count = count;
    return wait;
  }
  [[nodiscard]] static BrickStatus again_with(Value result) {
    BrickStatus again = status(Verdict::kAgain);
    again.result = std::move(result);
    return again;
  }
  [[nodiscard]] static BrickStatus fail_with(std::string error) {
    BrickStatus fail = status(Verdict::kFail);
    fail.error = std::move(error);
    return fail;
  }
  /// Unsolicited message: dealt with here (or ignored).
  [[nodiscard]] static BrickStatus handled() { return status(Verdict::kHandled); }
  /// Unsolicited message: keep it until a context waits for its kind.
  [[nodiscard]] static BrickStatus stash() { return status(Verdict::kStash); }
  /// Unsolicited message: replay it once the local pipeline for its key
  /// has finished.
  [[nodiscard]] static BrickStatus defer() { return status(Verdict::kDefer); }

  // --- Kernel and reply log, through the typed references ------------------
  [[nodiscard]] ProtocolControl& control() {
    return face<ProtocolControl>(slots_.control);
  }
  [[nodiscard]] ReplyLog& reply_log() {
    return face<ReplyLog>(slots_.reply_log);
  }
  [[nodiscard]] static bool is_master(const RequestCtx& ctx) {
    return ctx.role == Role::kPrimary || ctx.role == Role::kAlone;
  }
  [[nodiscard]] static bool peer_available(const RequestCtx& ctx) {
    return ctx.peer_alive && ctx.role != Role::kAlone;
  }

  void send_peer(ReplicaMessage message) {
    control().send_peer(std::move(message));
  }

  void send_peer_to(std::int64_t host, ReplicaMessage message) {
    control().send_peer_to(host, std::move(message));
  }

  /// Live members of the replica group, from the kernel.
  [[nodiscard]] const std::vector<std::int64_t>& alive_peers() {
    return control().alive_peers();
  }

  void report_fault(const std::string& kind) { control().report_fault(kind); }

  void count_event(Event event) { control().count_event(event); }

  void resume_after(const RequestKey& key, std::int64_t delay_us, Value result) {
    control().resume_after(key, delay_us, std::move(result));
  }

  // --- The application, through the typed references -----------------------
  [[nodiscard]] Server& server() { return face<Server>(slots_.server); }
  /// True when the server reference, optional for some bricks, is wired.
  [[nodiscard]] bool server_wired() const { return wired(slots_.server); }
  /// Run the application once through the server reference.
  [[nodiscard]] Execution run_server(const Value& request) {
    return server().process(request);
  }
  [[nodiscard]] StateManager& state_manager() {
    return face<StateManager>(slots_.state);
  }
  /// True when the optional state manager is wired.
  [[nodiscard]] bool state_wired() const { return wired(slots_.state); }
  [[nodiscard]] bool check_assertion(const Value& request, const Value& result) {
    return face<Assertion>(slots_.assertion).check(request, result);
  }

  /// Content digest for result comparison (LFR notification, TR votes).
  [[nodiscard]] static std::int64_t digest(const Value& value) {
    return static_cast<std::int64_t>(content_digest(value));
  }

  // --- Fault simulation -----------------------------------------------------
  /// The simulation's fault-simulation registry when it is enabled, else
  /// nullptr (disabled, or the brick runs hostless in a unit test). Callers
  /// gate any parameter computation (payload sizes) behind this so the
  /// uninstrumented path stays free of extra work.
  [[nodiscard]] fsim::Registry* fsim_registry() const {
    if (host() == nullptr) return nullptr;
    fsim::Registry& registry = host()->sim().fsim();
    return registry.enabled() ? &registry : nullptr;
  }

  /// Virtual time for fsim Site stamps (0 when hostless).
  [[nodiscard]] std::int64_t fsim_now() const {
    return host() != nullptr ? host()->sim().now() : 0;
  }

  // --- Observability --------------------------------------------------------
  /// True when this brick runs on a host whose simulation records traces.
  /// Callers gate any argument computation (payload sizes) behind this so
  /// the untraced path stays free of extra work.
  [[nodiscard]] bool tracing() const {
    return host() != nullptr && host()->sim().tracer().enabled();
  }

  /// Trace id of a request (0 when untraced).
  [[nodiscard]] static std::uint64_t trace_of(const RequestCtx& ctx) {
    return ctx.trace;
  }

  /// Record an instant event on this brick's host. No-op when tracing() is
  /// false (or the brick runs hostless in a unit test).
  void trace_instant(std::string_view name, std::uint64_t trace,
                     std::int64_t arg = 0) {
    if (!tracing()) return;
    obs::Tracer& tracer = host()->sim().tracer();
    tracer.instant(host()->id().value(), tracer.intern(name), trace,
                   host()->sim().now(), arg);
  }

 private:
  BrickSlots slots_;
};

/// Component type registrations for every brick.
[[nodiscard]] comp::ComponentTypeInfo sync_before_noop_type();
[[nodiscard]] comp::ComponentTypeInfo sync_before_lfr_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_compute_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_tr_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_rb_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_noop_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_pbr_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_lfr_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_pbr_assert_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_lfr_assert_type();

}  // namespace rcs::ftm
