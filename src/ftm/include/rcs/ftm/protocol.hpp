// Protocol kernel: the FTM's common part.
//
// This component realizes what the paper's two design loops factored into the
// FaultToleranceProtocol and DuplexProtocol base classes (§4.1-4.2):
// communication with the client, at-most-once semantics via the reply log,
// the Before-Proceed-After pipeline, inter-replica message routing, failover
// (promotion to master-alone), replica rejoin, and the quiescence gate used
// during reconfigurations (§5.3). It holds all protocol state — request
// contexts, buffers, counters — so the variable-feature bricks it drives stay
// stateless and can be swapped by differential transitions.
//
// Pipeline: a client request runs Before -> Proceed -> After -> reply. Each
// phase calls the wired brick's run_phase, which answers with a status
// directive:
//   done   - phase complete, advance (optionally carrying {"result": v})
//   wait   - brick expects a peer message {"expect": kind}; the kernel parks
//            the context and resumes it when that message (or a stashed early
//            copy) arrives, feeding it to the brick's on_peer
//   again  - re-run the current phase (used by assertion recovery)
//   fail   - abort with {"error": msg}; the client gets an error reply
// The kernel calls the bricks and the reply log through their C++ faces
// (interfaces.hpp), resolved when the wires are made. Bricks and the failure
// detector reach the kernel back through their "control" reference, typed as
// the ProtocolControl face this class implements (send_peer, resume_after,
// count_event, report_fault, peek, start_forwarded, join, ...). The control
// service's Value ops are left for callers outside the composite: the
// runtime, the node agent and tests.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/obs/metrics.hpp"
#include "rcs/obs/trace.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::ftm {

class ProtocolKernel : public comp::Component, public ProtocolControl {
 public:
  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  ~ProtocolKernel() override;

  /// Kernel counter block. Each counter is an obs::Counter handle: it counts
  /// locally until on_start binds it into the simulation's MetricsRegistry
  /// (scoped "ftm.<name>@<host>"), after which the registry cell is the live
  /// storage and one export covers every kernel in the deployment. Handles
  /// read as plain integers.
  struct Counters {
    obs::Counter requests;
    obs::Counter replies;
    obs::Counter error_replies;
    obs::Counter duplicates_served;
    obs::Counter forwarded;
    obs::Counter checkpoints_sent;
    obs::Counter checkpoints_applied;
    // Checkpoint composition: every checkpoint_sent is also counted as
    // either a delta or a full-state transfer.
    obs::Counter deltas_sent;
    obs::Counter full_checkpoints_sent;
    // Backup-side gap detections that triggered a full resync (join path).
    obs::Counter resyncs;
    obs::Counter notifications;
    obs::Counter divergences;
    obs::Counter assertion_failures;
    obs::Counter tr_mismatches;
    obs::Counter promotions;
    obs::Counter buffered;
  };

  // --- Native hooks for the runtime / adaptation engine -------------------
  /// Called whenever a fault-related event is reported (kind: "divergence",
  /// "assertion_failed", "tr_mismatch", "both_replicas_faulty").
  void set_fault_listener(std::function<void(const std::string& kind)> listener) {
    fault_listener_ = std::move(listener);
  }
  /// Called on role changes (promotion to alone, rejoin to primary/backup).
  void set_role_listener(std::function<void(Role)> listener) {
    role_listener_ = std::move(listener);
  }
  /// Called when a quiesce completes (all in-flight requests drained).
  void set_quiesce_listener(std::function<void()> listener) {
    quiesce_listener_ = std::move(listener);
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] bool blocked() const { return blocked_; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  [[nodiscard]] std::size_t buffered() const {
    return buffered_requests_.size() + buffered_forwarded_.size();
  }

  // --- ProtocolControl face (bricks, failure detector) --------------------
  [[nodiscard]] std::vector<std::int64_t> peers() const override {
    return peers_;
  }
  [[nodiscard]] std::vector<std::int64_t> alive_peers() const override;
  void send_peer(std::string_view phase, std::string_view kind,
                 Value data) override;
  void send_peer_to(std::int64_t peer, std::string_view phase,
                    std::string_view kind, Value data) override;
  void resume_after(const std::string& key, sim::Duration delay,
                    Value result) override;
  void count_event(Event event) override;
  void report_fault(const std::string& kind) override;
  [[nodiscard]] InFlight peek(const std::string& key) const override;
  void start_forwarded(const Value& request) override;
  void join() override;
  void peer_suspected(std::int64_t peer) override;
  void peer_recovered(std::int64_t peer) override;

 protected:
  // Services:
  //   "client"  (rcs.ClientPort): op "request" {client, id, request}
  //   "peer"    (rcs.PeerPort):   op "message" {phase, kind, key?, data}
  //   "control" (rcs.ProtocolControl): see dispatch_control
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& args) override;
  void* resolve_face(const comp::PortSpec& reference,
                     comp::Component& target) override {
    return typed_face(reference, target);
  }

  void on_start() override;
  void on_property_changed(const std::string& key) override;

 private:
  /// One in-flight request (client-originated or forwarded by the leader).
  /// Built in place in pending_ and never copied: the slots point into view.
  struct Ctx {
    Ctx() = default;
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    std::string key;
    std::int64_t client{-1};
    std::uint64_t id{0};
    /// The map the bricks get as their ctx argument, built once by
    /// init_view: key, client, id, request, result, forwarded, role,
    /// peer_alive, expect, attempt (and trace when traced). The slots below
    /// point into it; result, expect and attempt are written when they
    /// change, role and peer_alive by brick_view before each brick call.
    Value view;
    Value* result_slot{nullptr};
    Value* role_slot{nullptr};
    Value* peer_alive_slot{nullptr};
    Value* expect_slot{nullptr};
    Value* attempt_slot{nullptr};
    int phase{0};  // 0=before 1=proceed 2=after 3=done
    /// End-to-end trace id minted by the client and carried through protocol
    /// messages (0 = untraced). Virtual time the current phase started.
    std::uint64_t trace{0};
    sim::Time phase_start{0};
    bool forwarded{false};
    bool waiting{false};
    std::string expect;  // peer-message kind that resumes this ctx
    int attempt{0};      // peer-wait retransmission attempts so far
    TimerId retry_timer{};
    /// Multi-ack waits (checkpoint to N backups): how many more matching
    /// peer messages are needed, and who already answered.
    int expect_remaining{1};
    std::vector<std::int64_t> acked_peers;

    void set_expect(std::string kind) {
      *expect_slot = kind;
      expect = std::move(kind);
    }
    void bump_attempt() { *attempt_slot = ++attempt; }
  };

  // Entry points.
  void handle_client_request(const Value& payload);
  void handle_peer_message(const Value& payload);
  Value dispatch_control(const std::string& op, const Value& args);

  // Pipeline machinery.
  void start_request(const Value& payload, bool forwarded);
  /// Close the span of the phase `ctx` is in (when tracing) and step to the
  /// next phase. Every phase transition funnels through here.
  void advance_phase(Ctx& ctx);
  void advance(Ctx& ctx);
  /// Act on the status a brick answered for ctx's current phase: step past
  /// the phase when it is done, else apply_brick_status.
  void on_status(Ctx& ctx, Value status);
  static void take_result(Value& status, Ctx& ctx);
  void apply_brick_status(Ctx& ctx, Value status);
  /// Complete ctx's timer wait (resume_after) with `result`.
  void resume(const std::string& key, Value result);
  void complete(Ctx& ctx);
  void fail_request(Ctx& ctx, const std::string& error);
  // Takes the key BY VALUE: callers pass ctx.key, which lives inside
  // the map entry being erased.
  void finish_and_erase(std::string key);
  /// Build ctx.view (once, with ctx at its final address in pending_).
  void init_view(Ctx& ctx, Value request) const;
  /// ctx.view with role and peer_alive brought up to date.
  const Value& brick_view(Ctx& ctx) const;
  [[nodiscard]] const char* phase_reference(int phase) const;
  /// The brick wired for a phase (0..2), through its typed face.
  [[nodiscard]] Brick& brick(int phase) {
    return face<Brick>(phase_reference(phase));
  }
  [[nodiscard]] ReplyLog& reply_log() { return face<ReplyLog>("replyLog"); }

  // Peer group / failover. The replica group is the "peers" property (list
  // of host ids) plus the "master" property; liveness is tracked per peer.
  void rebuild_peer_group();
  [[nodiscard]] bool any_peer_alive() const;
  void handle_ctrl(const std::string& kind, const Value& data,
                   std::int64_t from);
  void set_role(Role role);
  /// Re-run the waiting phase of every peer-parked context (after a group
  /// membership change or a retransmission timeout).
  void rerun_waiting_phase(Ctx& ctx);

  // Peer-wait retransmission: a lost checkpoint/ack/exec message must not
  // wedge the pipeline — re-run the waiting phase periodically until the
  // message arrives or the failure detector declares the peer dead.
  void schedule_peer_retry(Ctx& ctx);
  void cancel_peer_retry(Ctx& ctx);
  void on_peer_retry(const std::string& key);
  [[nodiscard]] sim::Duration retry_interval() const;

  // Quiescence.
  void check_drained();
  void drain_buffers();

  Role role_{Role::kPrimary};
  std::vector<std::int64_t> peers_;
  std::map<std::int64_t, bool> peer_alive_map_;
  bool blocked_{false};
  std::map<std::string, Ctx> pending_;
  /// Early peer messages stashed until a context starts waiting for them,
  /// keyed by (request key, message kind). Keeps the bricks stateless.
  std::map<std::pair<std::string, std::string>, Value> stash_;
  /// Unsolicited messages a brick asked to postpone until the local pipeline
  /// for their key finishes (e.g. an exec_req racing the local execution).
  std::map<std::string, std::vector<Value>> deferred_;
  /// Abort notices that overtook their forwarded request on the wire; the
  /// matching forwarded pipeline must not be started. Bounded FIFO.
  std::deque<std::string> aborted_keys_;
  std::deque<Value> buffered_requests_;   // raw client payloads while blocked
  std::deque<Value> buffered_forwarded_;  // forwarded payloads while blocked
  /// Outstanding resume_after timers with what they resume; cancelled on
  /// destruction so a replaced composite leaves no closures pointing at a
  /// dead kernel. The closure carries only the handle, so it stays inline.
  struct PendingResume {
    TimerId timer{};
    std::string key;
    Value result;
  };
  std::map<std::uint64_t, PendingResume> resume_timers_;
  std::uint64_t next_resume_timer_{0};
  Counters counters_;

  // Observability wiring (set up in on_start when the kernel runs on a host;
  // unit tests without a host keep local counters and no tracer).
  void bind_observability();
  obs::Tracer* tracer_{nullptr};
  obs::NameId phase_span_names_[3]{};
  obs::NameId promote_span_name_{0};
  obs::NameId rejoin_span_name_{0};

  std::function<void(const std::string&)> fault_listener_;
  std::function<void(Role)> role_listener_;
  std::function<void()> quiesce_listener_;
};

}  // namespace rcs::ftm
