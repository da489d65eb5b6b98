// Interface and message vocabulary of the FTM framework.
//
// The FTM composite (paper Fig. 6) contains, per replica:
//
//       client --ftm.request--> [protocol] --before--> [syncBefore]
//                                   |---------exec---> [proceed] --server--> [server]
//                                   |--------after---> [syncAfter]
//                                   |------replyLog--> [replyLog]
//                                   |-----detector---> [failureDetector]
//
// protocol / replyLog / server / failureDetector are the *common parts*
// (never touched by transitions); syncBefore / proceed / syncAfter are the
// *variable features* replaced by differential transitions (§4.2).
//
// Interfaces are the typed contracts on the wires; message types are the
// host-level network message names.
//
// The bricks, the kernel, the reply log, the failure detector and the
// application call each other as C++ objects: rcs.ProtocolControl,
// rcs.ReplyLog, rcs.Server, rcs.StateManager and rcs.Assertion each have a
// face below and the three brick interfaces share one, which the caller
// resolves when a script makes the wire (typed_face) and then calls
// virtually, with no Value argument maps. The kernel↔brick contract is
// typed too: a brick reads a RequestCtx, gets replica messages as a
// PeerMessage and answers a BrickStatus. Callers outside the composite (the
// runtime, the node agent) use the same C++ methods. The client's request
// and every replica message are typed envelopes (replica_message.hpp); the
// PBR checkpoint, state capture, ack and rejoin bodies are structs. A
// request is named by a RequestKey, its (client, id) integers, in the
// contexts, the kernel's tables, the envelopes and the reply log; its text
// "c<client>:<id>" is written only on the wire and in log lines
// (request_key.hpp). Value stays for the client's reply, for the other
// replica-message bodies, and for what the application computes and keeps:
// its requests, results, state and deltas.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rcs/common/intern.hpp"
#include "rcs/common/payload.hpp"
#include "rcs/common/value.hpp"
#include "rcs/component/ports.hpp"
#include "rcs/ftm/replica_message.hpp"
#include "rcs/ftm/request_key.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::comp {
class Component;
struct ComponentTypeInfo;
}

namespace rcs::ftm::iface {

inline constexpr const char* kSyncBefore = "rcs.SyncBefore";
inline constexpr const char* kProceed = "rcs.Proceed";
inline constexpr const char* kSyncAfter = "rcs.SyncAfter";
inline constexpr const char* kServer = "rcs.Server";
inline constexpr const char* kStateManager = "rcs.StateManager";
inline constexpr const char* kAssertion = "rcs.Assertion";
inline constexpr const char* kReplyLog = "rcs.ReplyLog";
inline constexpr const char* kProtocolControl = "rcs.ProtocolControl";
inline constexpr const char* kClientPort = "rcs.ClientPort";
inline constexpr const char* kPeerPort = "rcs.PeerPort";
inline constexpr const char* kFailureDetector = "rcs.FailureDetector";

}  // namespace rcs::ftm::iface

namespace rcs::ftm::msg {

// Message types are interned once at startup: hot senders pass a 4-byte id,
// not a string, and routing on the receiving host is an array index.

/// client -> replica: a typed ClientRequest (replica_message.hpp), sized as
/// {"client": u32, "id": u64, "request": value, "trace"?: u64}. The client
/// builds it once per request and sends the same payload on every attempt;
/// the kernel reads its fields in place (ProtocolKernel::deliver_client).
inline const MsgType kRequest{"ftm.request"};
/// replica -> client: {"id": u64, "result": value} or {"id", "error": str}
inline const MsgType kReply{"ftm.reply"};
/// replica <-> replica: a typed ReplicaMessage (replica_message.hpp), sized
/// as {"data": body, "key"?: str, "kind": str, "phase": str}, where "key" is
/// the text of the RequestKey the message names. The sender is
/// not in the payload: the runtime hands the kernel the shared payload and
/// Message::from side by side (ProtocolKernel::deliver_peer), and the kernel
/// gives the bricks a PeerMessage that reads the envelope in place.
inline const MsgType kReplica{"ftm.replica"};
/// replica <-> replica failure detection beacon: {"from": sender host id}
inline const MsgType kHeartbeat{"ftm.heartbeat"};

}  // namespace rcs::ftm::msg

namespace rcs::ftm {

/// Replica roles. The paper's duplex FTMs run a master (primary/leader) and a
/// slave (backup/follower); after a peer crash the survivor serves alone.
enum class Role {
  kPrimary,
  kBackup,
  kAlone,
};

[[nodiscard]] constexpr const char* to_string(Role role) {
  switch (role) {
    case Role::kPrimary: return "primary";
    case Role::kBackup: return "backup";
    case Role::kAlone: return "alone";
  }
  return "?";
}

[[nodiscard]] Role role_from_string(const std::string& text);

/// Kernel counters a brick bumps through ProtocolControl::count_event.
enum class Event : std::uint8_t {
  kCheckpointSent,
  kCheckpointApplied,
  kDeltaSent,
  kFullCheckpointSent,
  kResyncRequested,
  kNotification,
};

/// The request context a brick reads: one in-flight request, as the kernel
/// holds it. The kernel refreshes role and peer_alive before each brick
/// call; bricks only read it (they keep no per-request state of their own).
struct RequestCtx {
  /// The client's host id, where the reply goes, and the client's request
  /// id: the request's name in the kernel's tables, the reply log and the
  /// replica messages about it.
  RequestKey key;
  /// The result so far: the Proceed phase's output once it is done.
  Value result;
  /// A follower's pipeline for a request its leader forwarded.
  bool forwarded{false};
  Role role{Role::kPrimary};
  /// Some member of the replica group is not suspected by the detector.
  bool peer_alive{false};
  /// The peer-message kind the context waits for (kNone when not waiting on
  /// a peer), and how many times the waiting phase was re-run.
  PeerKind expect{PeerKind::kNone};
  int attempt{0};
  /// End-to-end trace id minted by the client (0 = untraced).
  std::uint64_t trace{0};

  /// The client's request, read in place from the payload the kernel holds.
  [[nodiscard]] const Value& request() const { return *request_; }
  /// The reply {id, result} as one shared cell, built on first use and
  /// kept until the kernel changes the result: the checkpoint's
  /// pending_reply, the reply log and the client all hold this cell.
  [[nodiscard]] const Value& reply() const {
    if (reply_.is_null()) reply_ = reply_cell(key.id, result);
    return reply_;
  }

 protected:
  [[nodiscard]] static Value reply_cell(std::uint64_t id, Value result);

  const Value* request_{nullptr};
  mutable Value reply_;  // null until reply() builds it
};

/// A delivered replica message: the envelope, read in place from the shared
/// payload, with the host the network delivered it from. The references
/// stay valid for the whole call.
struct PeerMessage {
  /// Throws ValueError if `payload` holds no ReplicaMessage.
  PeerMessage(const Payload& payload, std::int64_t from)
      : envelope(payload.get<ReplicaMessage>()),
        phase(envelope.phase),
        kind(envelope.kind),
        key(envelope.key),
        from(from),
        payload(payload) {}

  /// The Value body (LFR request and notify, exec_req / exec_result, abort,
  /// join); throws FtmError for a typed one.
  [[nodiscard]] const Value& data() const { return envelope.data(); }
  /// The typed body (Checkpoint, CheckpointAck, JoinSnapshot); throws
  /// FtmError if the message carries another.
  template <class T>
  [[nodiscard]] const T& body() const {
    return envelope.body_as<T>();
  }

  const ReplicaMessage& envelope;
  PeerPhase phase;
  PeerKind kind;
  /// The request the message names. The kernel hands a brick only messages
  /// that name one.
  std::optional<RequestKey> key;
  std::int64_t from{-1};
  /// The shared payload itself, for a brick that hands the message on
  /// (ProtocolControl::start_forwarded) without copying it.
  const Payload& payload;
};

/// What a brick answers for a phase or a peer message. run_phase and a
/// solicited on_peer answer done / wait / again / fail; an unsolicited
/// on_peer answers handled / stash / defer.
struct BrickStatus {
  enum class Verdict : std::uint8_t {
    kDone,     // phase complete; advance (with `result`, if set)
    kWait,     // park until `expect_count` peers sent `expect` (kNone: resume)
    kAgain,    // re-run the current phase (assertion recovery)
    kFail,     // abort; the client gets an error reply with `error`
    kHandled,  // unsolicited message dealt with (or ignored)
    kStash,    // keep it until a context waits for its (key, kind)
    kDefer,    // replay it once the local pipeline for its key finished
  };
  Verdict verdict{Verdict::kHandled};
  std::optional<Value> result;
  PeerKind expect{PeerKind::kNone};
  int expect_count{1};
  std::string error;
};

/// Face of rcs.SyncBefore, rcs.Proceed and rcs.SyncAfter: what the kernel
/// calls on the brick in each slot.
class Brick {
 public:
  /// Run this brick's phase — Before, Proceed or After, by its slot — for
  /// the request `ctx`.
  virtual BrickStatus run_phase(const RequestCtx& ctx) = 0;
  /// A peer message for this slot: solicited (`ctx` is the context waiting
  /// for it) or unsolicited (`ctx` is null).
  virtual BrickStatus on_peer(const RequestCtx* ctx,
                              const PeerMessage& message) = 0;
  /// Rejoin: the master's state and reply log for a restarted replica, and
  /// its application on that replica. Only the After slot is asked.
  virtual JoinSnapshot make_join_snapshot() = 0;
  virtual void apply_join_snapshot(const JoinSnapshot& snapshot) = 0;

 protected:
  ~Brick() = default;
};

/// Progress of an in-flight request, for ProtocolControl::peek.
struct InFlight {
  bool found{false};
  int phase{0};  // 0=before 1=proceed 2=after
  /// The context's result so far; valid until the kernel next runs.
  const Value* result{nullptr};
};

/// Face of rcs.ProtocolControl: the kernel services bricks and the failure
/// detector reach back through their "control" reference.
class ProtocolControl {
 public:
  /// The replica group, and its members not suspected by the detector. Both
  /// lists are the kernel's own: the group is valid until the "peers"
  /// property next changes, the live list until the group's liveness does.
  [[nodiscard]] virtual const std::vector<std::int64_t>& peers() const = 0;
  [[nodiscard]] virtual const std::vector<std::int64_t>& alive_peers() const = 0;
  /// Send `message` to every live peer (one shared payload), or to one.
  virtual void send_peer(ReplicaMessage message) = 0;
  virtual void send_peer_to(std::int64_t peer, ReplicaMessage message) = 0;
  /// Complete the waiting phase of `key` with `result` after `delay`.
  virtual void resume_after(const RequestKey& key, sim::Duration delay,
                            Value result) = 0;
  virtual void count_event(Event event) = 0;
  /// A detected fault ("divergence", "assertion_failed", ...), for the
  /// counters and the fault listener.
  virtual void report_fault(const std::string& kind) = 0;
  [[nodiscard]] virtual InFlight peek(const RequestKey& key) const = 0;
  /// Start a pipeline for the request the leader forwarded in `message`
  /// (its data() is {key, client, id, request, trace?}).
  virtual void start_forwarded(const PeerMessage& message) = 0;
  /// Ask the master for a full state and reply-log snapshot.
  virtual void join() = 0;
  virtual void peer_suspected(std::int64_t peer) = 0;
  virtual void peer_recovered(std::int64_t peer) = 0;

 protected:
  ~ProtocolControl() = default;
};

/// Face of rcs.ReplyLog (see reply_log.hpp).
class ReplyLog {
 public:
  /// The reply recorded for `key`, or null; valid until the next record or
  /// import.
  [[nodiscard]] virtual const Value* lookup(const RequestKey& key) const = 0;
  virtual void record(const RequestKey& key, Value reply) = 0;
  /// Every record, and their replacement of the log.
  [[nodiscard]] virtual ReplySnapshot export_all() const = 0;
  virtual void import_all(const ReplySnapshot& snapshot) = 0;
  /// The records the peer has not acknowledged (from = its watermark); the
  /// acknowledgement; and their import, which is false when the snapshot
  /// starts past what this log has seen.
  [[nodiscard]] virtual ReplySnapshot export_since() const = 0;
  virtual void ack_export(std::uint64_t upto) = 0;
  [[nodiscard]] virtual bool import_delta(const ReplySnapshot& delta) = 0;

 protected:
  ~ReplyLog() = default;
};

/// One execution of the application: its result, and the CPU time the host
/// charged for it.
struct Execution {
  Value result;
  sim::Duration cpu{0};
};

/// Face of rcs.Server: the application's business logic, the base level of
/// the paper's two-layer architecture (§2).
class Server {
 public:
  /// Run `request` through the primary variant, or through the diversified
  /// alternate (recovery blocks). Injected value faults strike the result.
  virtual Execution process(const Value& request) = 0;
  virtual Execution process_alternate(const Value& request) = 0;

 protected:
  ~Server() = default;
};

/// What a backup did with the capture of a delta checkpoint.
enum class DeltaApply : std::uint8_t {
  kApplied,    // merged into the state (ack it)
  kDuplicate,  // a retransmission of one already applied (ack it again)
  kResync,     // a gap or an unknown stream: only a full resync recovers
};

/// Face of rcs.StateManager: the application's state, whole and as the
/// delta-checkpoint stream (app_base.hpp describes the protocol).
class StateManager {
 public:
  [[nodiscard]] virtual Value get_state() = 0;
  virtual void set_state(const Value& state) = 0;
  /// Primary: everything mutated since the last acknowledged capture, and
  /// the acknowledgement of capture `seq` by the whole group.
  [[nodiscard]] virtual StateCapture capture_delta() = 0;
  virtual void ack_delta(std::uint64_t seq) = 0;
  /// Backup: apply a capture of the primary's stream.
  [[nodiscard]] virtual DeltaApply apply_delta(const StateCapture& capture) = 0;
  /// Rejoin: the whole state anchored in the capture stream (a
  /// JoinSnapshot's state, ckpt_stream and ckpt_seq), and its adoption by
  /// the joiner, which restarts its own capture side.
  [[nodiscard]] virtual JoinSnapshot export_full() = 0;
  virtual void import_full(const JoinSnapshot& snapshot) = 0;

 protected:
  ~StateManager() = default;
};

/// Face of rcs.Assertion: the application-defined safety property over a
/// (request, result) pair (§3.2.1), the meta level's hook into the base.
class Assertion {
 public:
  [[nodiscard]] virtual bool check(const Value& request,
                                   const Value& result) = 0;

 protected:
  ~Assertion() = default;
};

/// Component::resolve_face for the FTM's components: the face a reference
/// of `reference.interface_name` calls on `target` — Brick,
/// ProtocolControl, ReplyLog, Server, StateManager or Assertion — or null
/// for the kernel's unused "detector" reference.
/// Throws ComponentError if the target lacks the face.
void* typed_face(const comp::PortSpec& reference, comp::Component& target);

/// Throws LogicError unless `info` declares each named reference in its
/// slot, or, for a slot past its references, declares none by that name.
/// face<F>(slot) trusts a type's slot constants, so each type checks them
/// here when it is registered.
void check_slots(
    const comp::ComponentTypeInfo& info,
    std::initializer_list<std::pair<std::size_t, std::string_view>> slots);

/// The StateManager face of a composite's application, for a caller outside
/// the composite (the node agent's monolithic state transfer). Throws
/// ComponentError if `server` is stopped, declares no "state" service or
/// lacks the face.
[[nodiscard]] StateManager& state_manager_of(comp::Component& server);

}  // namespace rcs::ftm
