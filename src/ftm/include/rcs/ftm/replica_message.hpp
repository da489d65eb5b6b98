// Replica messages: what one replica of an FTM sends another, and the
// client request that starts a replica's pipeline.
//
// Every ftm.replica message is one ReplicaMessage, built once by the sender
// and shared by handle (Payload::typed) with every receiver: the pipeline
// phase it is for, its kind, the request it names (a RequestKey the sender
// gives, whatever the body) and a body. The bodies of the PBR checkpoint
// (with the state manager's capture), its ack and the rejoin snapshot are
// C++ structs, read field by field; every other kind (LFR request and
// notify, exec_req / exec_result, abort, join) carries a Value body.
//
// Nothing is serialized on the simulated wire, but the network prices each
// message at the size of its encoding: a message costs, byte for byte, what
// the equivalent Value map would, so traffic figures do not depend on the
// representation. encoded_size() and encode() are one walk over the message
// (a counting sink and a byte sink), and that walk defines the shapes:
//
//   envelope      {data: body, key?: str, kind: str, phase: str}
//                 ("key" when the message names a request: its key)
//   checkpoint    full:  {key, pending_reply, replies: snapshot, state}
//                 delta: {ckpt?: capture, key, pending_reply,
//                         rlog: delta snapshot}
//   capture       {base, delta, full: false, seq, stream}
//                 {base, full: true, seq, state, stream}
//   checkpoint_ack {key, seq?, upto?}
//   join_ack      {ckpt_seq?, ckpt_stream?, replies?: snapshot, state?}
//   snapshot      {entries: {key: reply}, order: [key], upto}
//   delta snapshot {entries, from, order, upto}
//   client request {client, id, request, trace?}
//                 ("trace" when the client records traces: its trace id)
//
// A request key ("key", the snapshot's entries and order) is two integers
// in every struct; it is text only at the sinks, which count and write it
// as "c<client>:<id>" (request_key.hpp).
//
// Map keys encode in byte order, as Value maps do. A snapshot's records are
// kept in FIFO order; only encode(), which writes bytes, sorts the entries,
// since a map's size does not depend on the order of its keys. It sorts
// them by their text, which is not the keys' numeric order (c10:1 < c9:1,
// c1:10 < c1:9).
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "rcs/common/payload.hpp"
#include "rcs/common/value.hpp"
#include "rcs/ftm/request_key.hpp"

namespace rcs::ftm {

/// The pipeline slot a replica message is for, or the kernel's own ctrl.
enum class PeerPhase : std::uint8_t { kBefore, kExec, kAfter, kCtrl };

/// Every kind of replica message. kNone is no message: a context that
/// waits for none waits for resume_after.
enum class PeerKind : std::uint8_t {
  kNone,
  kRequest,        // LFR leader -> follower: the forwarded client request
  kNotify,         // LFR leader -> follower: the reply digest
  kExecReq,        // A&Duplex: re-execute a request whose assertion failed
  kExecResult,     // A&Duplex: the re-execution's outcome
  kCheckpoint,     // PBR primary -> backup
  kCheckpointAck,  // PBR backup -> primary
  kAbort,          // ctrl: the master failed a request
  kJoin,           // ctrl: a restarted replica asks to rejoin
  kJoinAck,        // ctrl: the master's state and reply log for the joiner
};

[[nodiscard]] const char* to_string(PeerPhase phase);
[[nodiscard]] const char* to_string(PeerKind kind);

/// Records of the reply log, oldest first, with the record-stamp window
/// they cover. Only the log makes one, so no key appears twice.
struct ReplySnapshot {
  struct Record {
    RequestKey key;
    Value reply;  // a cell, shared with the exporting log
  };
  std::vector<Record> records;
  /// A delta starts past `from`, the stamp the peer acknowledged (0 for a
  /// full snapshot, whose shape has no "from").
  std::uint64_t from{0};
  /// Stamp of the exporter's newest record.
  std::uint64_t upto{0};
};

/// A state manager's capture for a delta checkpoint: its place in the
/// primary's capture stream and what changed since the acknowledged `base`.
/// An application that tracks no dirty keys captures its whole state
/// instead (`full`), under the same sequence numbers.
struct StateCapture {
  std::uint64_t stream{0};
  std::uint64_t seq{0};
  std::uint64_t base{0};
  bool full{false};
  /// The whole state ("state") when full, else the delta ("delta").
  Value state;
};

/// Body of a PBR checkpoint.
struct Checkpoint {
  bool delta{false};
  /// Full: the application state ("state", null when no state manager is
  /// wired).
  std::optional<Value> state;
  /// Delta: the state manager's capture ("ckpt"), absent when none is
  /// wired.
  std::optional<StateCapture> capture;
  /// Full: the whole reply log ("replies"). Delta: the records the backup
  /// has not acknowledged ("rlog").
  ReplySnapshot replies;
  /// The reply of the request this checkpoint completes, as a cell: it is
  /// recorded in the log only once the After phase ends.
  Value pending_reply;
};

/// Body of a checkpoint_ack: the delta stream positions the backup applied.
struct CheckpointAck {
  std::optional<std::int64_t> seq;    // the state capture's "seq"
  std::optional<std::uint64_t> upto;  // the reply-log delta's "upto"
};

/// Body of a join_ack: the master's state, anchored in its checkpoint
/// stream, and its reply log. A brick with nothing to ship sends it empty.
struct JoinSnapshot {
  std::optional<Value> state;
  std::optional<std::int64_t> ckpt_stream;
  std::optional<std::int64_t> ckpt_seq;
  std::optional<ReplySnapshot> replies;
};

struct ReplicaMessage {
  using Body = std::variant<Value, Checkpoint, CheckpointAck, JoinSnapshot>;

  /// A Value body that names no request (join).
  ReplicaMessage(PeerPhase phase, PeerKind kind, Value data);
  /// A body naming the request `key`. A Value body that also carries the
  /// key as its "key" member keeps it there as text.
  ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key, Value data);
  ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key,
                 Checkpoint body);
  ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key,
                 CheckpointAck body);
  /// A rejoin snapshot, which names no request.
  ReplicaMessage(PeerPhase phase, PeerKind kind, JoinSnapshot body);

  /// The Value body; throws FtmError for a typed one.
  [[nodiscard]] const Value& data() const;
  /// The typed body; throws FtmError if the message carries another.
  template <class T>
  [[nodiscard]] const T& body_as() const {
    if (const T* typed = std::get_if<T>(&body)) return *typed;
    body_mismatch();
  }

  PeerPhase phase;
  PeerKind kind;
  /// The request the message names ("key" on the wire, as its text), if
  /// any.
  std::optional<RequestKey> key;
  Body body;

 private:
  [[noreturn]] void body_mismatch() const;
};

/// A client request (msg::kRequest): built once by the client and sent by
/// handle on every attempt, read field by field by the kernel.
struct ClientRequest {
  std::int64_t client{0};  // the client's host id, where the reply goes
  std::uint64_t id{0};     // per client, reused by every retransmission
  /// End-to-end trace id, 0 when untraced (the encoding has no "trace").
  std::uint64_t trace{0};
  Value request;
};

/// Exact size of the message's encoding (what the network charges).
[[nodiscard]] std::size_t encoded_size(const ReplicaMessage& message);
/// Exact size of its "data" member alone.
[[nodiscard]] std::size_t body_size(const ReplicaMessage& message);
/// The encoding: the bytes Value::encode gives for the equivalent map.
[[nodiscard]] Bytes encode(const ReplicaMessage& message);

/// The message in a shared payload cell, sized once.
[[nodiscard]] Payload make_payload(ReplicaMessage message);

[[nodiscard]] std::size_t encoded_size(const ClientRequest& request);
[[nodiscard]] Bytes encode(const ClientRequest& request);
[[nodiscard]] Payload make_payload(ClientRequest request);

}  // namespace rcs::ftm
