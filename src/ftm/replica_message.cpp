#include "rcs/ftm/replica_message.hpp"

#include <algorithm>
#include <string_view>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::ftm {

const char* to_string(PeerPhase phase) {
  switch (phase) {
    case PeerPhase::kBefore: return "before";
    case PeerPhase::kExec: return "exec";
    case PeerPhase::kAfter: return "after";
    case PeerPhase::kCtrl: return "ctrl";
  }
  return "?";
}

const char* to_string(PeerKind kind) {
  switch (kind) {
    case PeerKind::kNone: return "";
    case PeerKind::kRequest: return "request";
    case PeerKind::kNotify: return "notify";
    case PeerKind::kExecReq: return "exec_req";
    case PeerKind::kExecResult: return "exec_result";
    case PeerKind::kCheckpoint: return "checkpoint";
    case PeerKind::kCheckpointAck: return "checkpoint_ack";
    case PeerKind::kAbort: return "abort";
    case PeerKind::kJoin: return "join";
    case PeerKind::kJoinAck: return "join_ack";
  }
  return "?";
}

ReplicaMessage::ReplicaMessage(PeerPhase phase, PeerKind kind, Value data)
    : phase(phase), kind(kind), body(std::move(data)) {}

ReplicaMessage::ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key,
                               Value data)
    : phase(phase), kind(kind), key(key), body(std::move(data)) {}

ReplicaMessage::ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key,
                               Checkpoint body)
    : phase(phase), kind(kind), key(key), body(std::move(body)) {}

ReplicaMessage::ReplicaMessage(PeerPhase phase, PeerKind kind, RequestKey key,
                               CheckpointAck body)
    : phase(phase), kind(kind), key(key), body(std::move(body)) {}

ReplicaMessage::ReplicaMessage(PeerPhase phase, PeerKind kind,
                               JoinSnapshot body)
    : phase(phase), kind(kind), body(std::move(body)) {}

const Value& ReplicaMessage::data() const {
  if (const Value* value = std::get_if<Value>(&body)) return *value;
  body_mismatch();
}

void ReplicaMessage::body_mismatch() const {
  throw FtmError(strf("replica message '", to_string(kind),
                      "' carries another body type"));
}

namespace {

constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// The two sinks of the one walk below. Each call mirrors a step of
// Value::encode: a map or list header, a map key, a string, int or Value.
// A request key goes in as a map key or a string of its text: the counting
// sink adds the text's length, the byte sink formats it on the stack.

class SizeSink {
 public:
  /// Only bytes depend on the order of map keys, not sizes.
  static constexpr bool kSortsEntries = false;

  void map(std::size_t count) { size_ += 1 + varint_size(count); }
  void list(std::size_t count) { size_ += 1 + varint_size(count); }
  void key(std::string_view k) { size_ += varint_size(k.size()) + k.size(); }
  void key(const RequestKey& k) { size_ += text_size(k); }
  void string(std::string_view s) { size_ += 1 + varint_size(s.size()) + s.size(); }
  void string(const RequestKey& k) { size_ += 1 + text_size(k); }
  void integer(std::int64_t /*v*/) { size_ += 1 + 8; }
  void boolean(bool /*v*/) { size_ += 2; }
  void value(const Value& v) { size_ += v.encoded_size(); }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// The key's text as a length-prefixed string.
  static std::size_t text_size(const RequestKey& k) {
    const std::size_t n = KeyText::size_of(k);
    return varint_size(n) + n;
  }

  std::size_t size_{0};
};

class ByteSink {
 public:
  static constexpr bool kSortsEntries = true;

  explicit ByteSink(ByteWriter& out) : out_(out) {}

  void map(std::size_t count) { header(Value::Type::kMap, count); }
  void list(std::size_t count) { header(Value::Type::kList, count); }
  void key(std::string_view k) { out_.write_string(k); }
  void key(const RequestKey& k) { key(KeyText(k).view()); }
  void string(std::string_view s) {
    out_.write_u8(static_cast<std::uint8_t>(Value::Type::kString));
    out_.write_string(s);
  }
  void string(const RequestKey& k) { string(KeyText(k).view()); }
  void integer(std::int64_t v) {
    out_.write_u8(static_cast<std::uint8_t>(Value::Type::kInt));
    out_.write_i64(v);
  }
  void boolean(bool v) {
    out_.write_u8(static_cast<std::uint8_t>(Value::Type::kBool));
    out_.write_u8(v ? 1 : 0);
  }
  void value(const Value& v) { v.encode(out_); }

 private:
  void header(Value::Type type, std::size_t count) {
    out_.write_u8(static_cast<std::uint8_t>(type));
    out_.write_varint(count);
  }

  ByteWriter& out_;
};

template <class Sink>
void walk(Sink& sink, const ReplySnapshot& snapshot, bool delta) {
  const auto& records = snapshot.records;
  sink.map(delta ? 4 : 3);
  sink.key("entries");
  sink.map(records.size());
  if constexpr (Sink::kSortsEntries) {
    // In the byte order of the keys' texts, as a map keyed by them encodes.
    struct Entry {
      KeyText text;
      const Value* reply;
    };
    std::vector<Entry> sorted;
    sorted.reserve(records.size());
    for (const auto& record : records) {
      sorted.push_back({KeyText(record.key), &record.reply});
    }
    std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
      return a.text.view() < b.text.view();
    });
    for (const auto& entry : sorted) {
      sink.key(entry.text.view());
      sink.value(*entry.reply);
    }
  } else {
    for (const auto& record : records) {
      sink.key(record.key);
      sink.value(record.reply);
    }
  }
  if (delta) {
    sink.key("from");
    sink.integer(static_cast<std::int64_t>(snapshot.from));
  }
  sink.key("order");
  sink.list(records.size());
  for (const auto& record : records) sink.string(record.key);
  sink.key("upto");
  sink.integer(static_cast<std::int64_t>(snapshot.upto));
}

template <class Sink>
void walk(Sink& sink, const StateCapture& capture) {
  sink.map(5);
  sink.key("base");
  sink.integer(static_cast<std::int64_t>(capture.base));
  if (!capture.full) {
    sink.key("delta");
    sink.value(capture.state);
  }
  sink.key("full");
  sink.boolean(capture.full);
  sink.key("seq");
  sink.integer(static_cast<std::int64_t>(capture.seq));
  if (capture.full) {
    sink.key("state");
    sink.value(capture.state);
  }
  sink.key("stream");
  sink.integer(static_cast<std::int64_t>(capture.stream));
}

// A message's key, which the checkpoint and its ack repeat as "key" (their
// constructors require one).
using Key = std::optional<RequestKey>;

template <class Sink>
void walk(Sink& sink, const Key& key, const Checkpoint& ckpt) {
  if (ckpt.delta) {
    sink.map(3 + (ckpt.capture ? 1 : 0));
    if (ckpt.capture) {
      sink.key("ckpt");
      walk(sink, *ckpt.capture);
    }
    sink.key("key");
    sink.string(*key);
    sink.key("pending_reply");
    sink.value(ckpt.pending_reply);
    sink.key("rlog");
    walk(sink, ckpt.replies, /*delta=*/true);
    return;
  }
  const bool has_state = ckpt.state.has_value();
  sink.map(3 + (has_state ? 1 : 0));
  sink.key("key");
  sink.string(*key);
  sink.key("pending_reply");
  sink.value(ckpt.pending_reply);
  sink.key("replies");
  walk(sink, ckpt.replies, /*delta=*/false);
  if (has_state) {
    sink.key("state");
    sink.value(*ckpt.state);
  }
}

template <class Sink>
void walk(Sink& sink, const Key& key, const CheckpointAck& ack) {
  sink.map(1 + (ack.seq ? 1 : 0) + (ack.upto ? 1 : 0));
  sink.key("key");
  sink.string(*key);
  if (ack.seq) {
    sink.key("seq");
    sink.integer(*ack.seq);
  }
  if (ack.upto) {
    sink.key("upto");
    sink.integer(static_cast<std::int64_t>(*ack.upto));
  }
}

template <class Sink>
void walk(Sink& sink, const Key& /*key*/, const JoinSnapshot& join) {
  sink.map((join.ckpt_seq ? 1 : 0) + (join.ckpt_stream ? 1 : 0) +
           (join.replies ? 1 : 0) + (join.state ? 1 : 0));
  if (join.ckpt_seq) {
    sink.key("ckpt_seq");
    sink.integer(*join.ckpt_seq);
  }
  if (join.ckpt_stream) {
    sink.key("ckpt_stream");
    sink.integer(*join.ckpt_stream);
  }
  if (join.replies) {
    sink.key("replies");
    walk(sink, *join.replies, /*delta=*/false);
  }
  if (join.state) {
    sink.key("state");
    sink.value(*join.state);
  }
}

template <class Sink>
void walk(Sink& sink, const Key& /*key*/, const Value& data) {
  sink.value(data);
}

template <class Sink>
void walk_body(Sink& sink, const ReplicaMessage& message) {
  std::visit([&](const auto& body) { walk(sink, message.key, body); },
             message.body);
}

template <class Sink>
void walk(Sink& sink, const ReplicaMessage& message) {
  sink.map(message.key ? 4 : 3);
  sink.key("data");
  walk_body(sink, message);
  if (message.key) {
    sink.key("key");
    sink.string(*message.key);
  }
  sink.key("kind");
  sink.string(to_string(message.kind));
  sink.key("phase");
  sink.string(to_string(message.phase));
}

template <class Sink>
void walk(Sink& sink, const ClientRequest& request) {
  const bool traced = request.trace != 0;
  sink.map(traced ? 4 : 3);
  sink.key("client");
  sink.integer(request.client);
  sink.key("id");
  sink.integer(static_cast<std::int64_t>(request.id));
  sink.key("request");
  sink.value(request.request);
  if (traced) {
    sink.key("trace");
    sink.integer(static_cast<std::int64_t>(request.trace));
  }
}

template <class Message>
Bytes encode_walk(const Message& message) {
  ByteWriter out;
  out.reserve(encoded_size(message));
  ByteSink sink(out);
  walk(sink, message);
  return out.take();
}

}  // namespace

std::size_t encoded_size(const ReplicaMessage& message) {
  SizeSink sink;
  walk(sink, message);
  return sink.size();
}

std::size_t body_size(const ReplicaMessage& message) {
  SizeSink sink;
  walk_body(sink, message);
  return sink.size();
}

Bytes encode(const ReplicaMessage& message) { return encode_walk(message); }

Payload make_payload(ReplicaMessage message) {
  const std::size_t size = encoded_size(message);
  return Payload::typed(std::move(message), size);
}

std::size_t encoded_size(const ClientRequest& request) {
  SizeSink sink;
  walk(sink, request);
  return sink.size();
}

Bytes encode(const ClientRequest& request) { return encode_walk(request); }

Payload make_payload(ClientRequest request) {
  const std::size_t size = encoded_size(request);
  return Payload::typed(std::move(request), size);
}

}  // namespace rcs::ftm
