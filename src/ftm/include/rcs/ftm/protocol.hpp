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
// phase calls the wired brick's run_phase with the request's RequestCtx, and
// the brick answers a BrickStatus (interfaces.hpp) whose verdict is:
//   done   - phase complete, advance (optionally carrying a result)
//   wait   - brick expects `expect_count` peer messages of kind `expect`; the
//            kernel parks the context, counts each sender once, and resumes
//            it when the group answered (a stashed early copy counts too),
//            feeding the last message to the brick's on_peer. With `expect`
//            kNone the context waits for resume_after.
//   again  - re-run the current phase (used by assertion recovery)
//   fail   - abort with `error`; the client gets an error reply
// An unsolicited peer message (no context waits for it) goes to its phase's
// brick with a null ctx, which answers handled, stash (keep it until a
// context waits for its key and kind) or defer (replay it once the local
// pipeline for its key finished).
//
// The runtime delivers traffic through deliver_client and deliver_peer: the
// shared network payload and, for replica messages, the sender beside it.
// A replica payload is a typed ReplicaMessage (replica_message.hpp), which
// the kernel hands the bricks in place as a PeerMessage; the stash, the
// deferred list and the quiescence buffers hold the payload handle, not a
// copy. The kernel calls the bricks and the reply log through their C++
// faces, resolved when the wires are made. Bricks and the failure detector
// reach the kernel back through their "control" reference, typed as the
// ProtocolControl face this class implements (send_peer, resume_after,
// count_event, report_fault, peek, start_forwarded, join, ...). Callers
// outside the composite — the runtime, the node agent, tests — call the same
// C++ methods.
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

  /// Peer-wait retransmission period unless "retry_us" says otherwise.
  static constexpr sim::Duration kDefaultRetryInterval = 250 * sim::kMillisecond;

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
  /// Host id of the group's current master (the "master" property).
  [[nodiscard]] std::int64_t master() const {
    return property("master").as_int();
  }
  [[nodiscard]] bool blocked() const { return blocked_; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  [[nodiscard]] std::size_t buffered() const {
    return buffered_requests_.size() + buffered_forwarded_.size();
  }
  /// Early peer messages held until a context waits for them.
  [[nodiscard]] std::size_t stashed() const { return stash_.size(); }
  /// Unsolicited messages held until their key's local pipeline finishes.
  [[nodiscard]] std::size_t deferred() const {
    std::size_t count = 0;
    for (const auto& [key, held] : deferred_) count += held.size();
    return count;
  }

  // --- Network entries (the runtime's message handlers) -------------------
  /// A client request (a ClientRequest payload). These entries, the
  /// quiescence gate, join and peer_suspected throw ComponentError when the
  /// kernel is not started, as a wire's face does.
  void deliver_client(const Payload& payload);
  /// A replica message (a ReplicaMessage payload) from host `from`.
  void deliver_peer(const Payload& payload, std::int64_t from);

  // --- Quiescence gate (§5.3) ---------------------------------------------
  /// Block new work (buffering it) and report whether nothing is in flight;
  /// the quiesce listener fires now if so, else once the last request ends.
  bool quiesce();
  /// Reopen the gate and replay the buffered work.
  void unblock();

  // --- ProtocolControl face (bricks, failure detector) --------------------
  [[nodiscard]] const std::vector<std::int64_t>& peers() const override {
    return peers_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& alive_peers() const override {
    return alive_peers_;
  }
  void send_peer(ReplicaMessage message) override;
  void send_peer_to(std::int64_t peer, ReplicaMessage message) override;
  void resume_after(const RequestKey& key, sim::Duration delay,
                    Value result) override;
  void count_event(Event event) override;
  void report_fault(const std::string& kind) override;
  [[nodiscard]] InFlight peek(const RequestKey& key) const override;
  void start_forwarded(const PeerMessage& message) override;
  void join() override;
  void peer_suspected(std::int64_t peer) override;
  void peer_recovered(std::int64_t peer) override;

 protected:
  // Services:
  //   "client"  (rcs.ClientPort):      deliver_client
  //   "peer"    (rcs.PeerPort):        deliver_peer
  //   "control" (rcs.ProtocolControl): the face above, quiesce and unblock
  void* resolve_face(const comp::PortSpec& reference,
                     comp::Component& target) override {
    return typed_face(reference, target);
  }

  void on_start() override;
  void on_property_changed(const std::string& key) override;

 private:
  /// One in-flight request (client-originated or forwarded by the leader):
  /// the RequestCtx the bricks read, plus the kernel's own bookkeeping.
  /// Built in place in pending_ and never moved: its peer-retry timer holds
  /// its address.
  struct Ctx : RequestCtx {
    Ctx() = default;
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    /// Hold the network payload the request was read from; request() points
    /// into it.
    void hold(const Payload& payload, const Value& request) {
      source = payload;
      request_ = &request;
    }
    /// Every write of the result drops the reply cell built from the old
    /// one.
    void set_result(Value value) {
      result = std::move(value);
      reply_ = Value{};
    }
    /// A status's optional result becomes the result.
    void take_result(BrickStatus& status) {
      if (status.result) set_result(std::move(*status.result));
    }
    /// The reply cell, leaving ctx without it (and without its result when
    /// no brick built the cell).
    [[nodiscard]] Value take_reply() {
      return reply_.is_null() ? reply_cell(key.id, std::move(result))
                              : std::move(reply_);
    }

    Payload source;
    int phase{0};  // 0=before 1=proceed 2=after 3=done
    /// Virtual time the current phase started (traced requests only).
    sim::Time phase_start{0};
    bool waiting{false};
    TimerId retry_timer{};
    /// Multi-ack waits (checkpoint to N backups): how many matching peer
    /// messages are needed, and who already answered.
    int expect_remaining{1};
    std::vector<std::int64_t> acked_peers;
  };

  /// A replica message kept for later (stash, deferred list): the shared
  /// payload and its sender.
  struct HeldMessage {
    Payload payload;
    std::int64_t from{-1};
  };

  // Entry points.
  void handle_client_request(const Payload& payload);
  void handle_peer_message(const Payload& payload, std::int64_t from);

  // Pipeline machinery.
  /// Start the pipeline for request `id` of `client`; `request` is read in
  /// place from `source`, the ClientRequest or forward payload it came in.
  void start_request(const Payload& source, std::int64_t client,
                     std::uint64_t id, std::uint64_t trace,
                     const Value& request, bool forwarded);
  /// start_request for a forward (a ReplicaMessage payload) from the leader.
  void start_forwarded_request(const Payload& payload);
  /// Close the span of the phase `ctx` is in (when tracing) and step to the
  /// next phase. Every phase transition funnels through here.
  void advance_phase(Ctx& ctx);
  void advance(Ctx& ctx);
  /// Act on the status a brick answered for ctx's current phase.
  void apply_brick_status(Ctx& ctx, BrickStatus status);
  /// A message of the kind ctx waits for: count its sender once and, when
  /// the whole group answered, hand it to the phase's brick. True when it
  /// did (ctx may be gone then), false while ctx keeps waiting.
  bool feed_waiting(Ctx& ctx, const PeerMessage& message);
  /// Complete ctx's timer wait (resume_after) with `result`.
  void resume(const RequestKey& key, Value result);
  void complete(Ctx& ctx);
  void fail_request(Ctx& ctx, const std::string& error);
  // Takes the key BY VALUE: callers pass ctx.key, which lives inside
  // the map entry being erased.
  void finish_and_erase(RequestKey key);
  /// ctx with role and peer_alive brought up to date, for a brick call.
  const RequestCtx& brick_ctx(Ctx& ctx) const;
  /// Reference slots, in type_info's order: a phase's brick sits in the
  /// slot numbered like the phase.
  enum Slot : std::size_t { kBefore, kExec, kAfter, kReplyLog };
  /// The brick wired for a phase (0..2), through its typed face.
  [[nodiscard]] Brick& brick(int phase);
  [[nodiscard]] ReplyLog& reply_log() { return face<ReplyLog>(kReplyLog); }

  // Peer group / failover. The replica group is the "peers" property (list
  // of host ids) plus the "master" property; liveness is tracked per peer.
  void rebuild_peer_group();
  /// Mark `peer` alive or suspected, and rebuild alive_peers_.
  void set_peer_alive(std::int64_t peer, bool alive);
  void rebuild_alive_peers();
  [[nodiscard]] bool any_peer_alive() const { return !alive_peers_.empty(); }
  void handle_ctrl(const PeerMessage& message);
  void set_role(Role role);
  /// Re-run the waiting phase of every peer-parked context (after a group
  /// membership change or a retransmission timeout).
  void rerun_waiting_phase(Ctx& ctx);

  // Peer-wait retransmission: a lost checkpoint/ack/exec message must not
  // wedge the pipeline — re-run the waiting phase periodically until the
  // message arrives or the failure detector declares the peer dead.
  void schedule_peer_retry(Ctx& ctx);
  void cancel_peer_retry(Ctx& ctx);
  void on_peer_retry(Ctx& ctx);
  /// The "retry_us" property, read when it is set (and on start).
  void read_retry_interval();

  // Quiescence.
  void check_drained();
  void drain_buffers();

  Role role_{Role::kPrimary};
  std::vector<std::int64_t> peers_;
  std::map<std::int64_t, bool> peer_alive_map_;
  /// peers_ filtered by peer_alive_map_, rebuilt whenever either changes.
  std::vector<std::int64_t> alive_peers_;
  sim::Duration retry_interval_{kDefaultRetryInterval};
  bool blocked_{false};
  /// In-flight requests by key. A node map: a Ctx never moves.
  std::map<RequestKey, Ctx> pending_;
  /// Early peer messages stashed until a context starts waiting for them,
  /// keyed by (request key, message kind). Keeps the bricks stateless.
  std::map<std::pair<RequestKey, PeerKind>, HeldMessage> stash_;
  /// Unsolicited messages a brick asked to postpone until the local pipeline
  /// for their key finishes (e.g. an exec_req racing the local execution).
  std::map<RequestKey, std::vector<HeldMessage>> deferred_;
  /// Abort notices that overtook their forwarded request on the wire; the
  /// matching forwarded pipeline must not be started. Bounded FIFO.
  std::deque<RequestKey> aborted_keys_;
  std::deque<Payload> buffered_requests_;   // client payloads while blocked
  std::deque<Payload> buffered_forwarded_;  // forward messages while blocked
  /// Outstanding resume_after timers with what they resume; cancelled on
  /// destruction so a replaced composite leaves no closures pointing at a
  /// dead kernel. The closure carries only the handle, so it stays inline.
  struct PendingResume {
    TimerId timer{};
    RequestKey key;
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
