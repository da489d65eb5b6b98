// Typed replica messages against the Value maps they stand for: for random
// envelopes, checkpoints (full and delta, with the state manager's capture
// as a delta or as the full-state fallback), acks and rejoin snapshots, the
// typed walk must give the same bytes and the same size as Value::encode of
// the equivalent map, as the sender of the Value map built it. The network
// prices a replica message by this size, so any slip here would move every
// traffic figure and digest. A request key is the text "c<client>:<id>" in
// those maps, as the sender wrote it before keys were integers, and a map
// keyed by it encodes in the text's byte order, not in the keys' numeric
// order. The client's request envelope is held to the map the client sent
// before it was typed, the same way.
#include <gtest/gtest.h>

#include <limits>

#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/interfaces.hpp"

namespace rcs::ftm::testing {
namespace {

// --- The Value maps the typed messages stand for -------------------------

std::string text(const RequestKey& key) { return std::string(KeyText(key).view()); }

Value snapshot_value(const ReplySnapshot& snapshot, bool delta) {
  ValueMap entries;
  ValueList order;
  for (const auto& record : snapshot.records) {
    entries.emplace(text(record.key), record.reply);
    order.emplace_back(text(record.key));
  }
  Value out = Value::map();
  out.set("entries", std::move(entries)).set("order", std::move(order));
  if (delta) out.set("from", static_cast<std::int64_t>(snapshot.from));
  out.set("upto", static_cast<std::int64_t>(snapshot.upto));
  return out;
}

/// The capture map the application's state manager built before captures
/// were typed.
Value capture_value(const StateCapture& capture) {
  Value out = Value::map();
  out.set("stream", static_cast<std::int64_t>(capture.stream))
      .set("seq", static_cast<std::int64_t>(capture.seq))
      .set("base", static_cast<std::int64_t>(capture.base));
  if (!capture.full) {
    out.set("full", false).set("delta", capture.state);
  } else {
    out.set("full", true).set("state", capture.state);
  }
  return out;
}

using Key = std::optional<RequestKey>;

Value body_value(const Key& key, const Checkpoint& ckpt) {
  Value data = Value::map();
  data.set("key", text(*key));
  if (ckpt.delta) {
    if (ckpt.capture) data.set("ckpt", capture_value(*ckpt.capture));
    data.set("rlog", snapshot_value(ckpt.replies, /*delta=*/true));
  } else {
    data.set("state", *ckpt.state)
        .set("replies", snapshot_value(ckpt.replies, /*delta=*/false));
  }
  data.set("pending_reply", ckpt.pending_reply);
  return data;
}

Value body_value(const Key& key, const CheckpointAck& ack) {
  Value data = Value::map().set("key", text(*key));
  if (ack.seq) data.set("seq", *ack.seq);
  if (ack.upto) data.set("upto", static_cast<std::int64_t>(*ack.upto));
  return data;
}

Value body_value(const Key& /*key*/, const JoinSnapshot& join) {
  Value data = Value::map();
  if (join.state) data.set("state", *join.state);
  if (join.ckpt_stream) data.set("ckpt_stream", *join.ckpt_stream);
  if (join.ckpt_seq) data.set("ckpt_seq", *join.ckpt_seq);
  if (join.replies) {
    data.set("replies", snapshot_value(*join.replies, /*delta=*/false));
  }
  return data;
}

Value body_value(const Key& /*key*/, const Value& data) { return data; }

Value envelope_value(const ReplicaMessage& message) {
  Value data = std::visit(
      [&](const auto& body) { return body_value(message.key, body); },
      message.body);
  Value payload = Value::map();
  payload.set("phase", to_string(message.phase))
      .set("kind", to_string(message.kind));
  if (message.key) payload.set("key", text(*message.key));
  payload.set("data", std::move(data));
  return payload;
}

void expect_same_encoding(const ReplicaMessage& message) {
  const Value equivalent = envelope_value(message);
  EXPECT_EQ(encode(message), equivalent.encode());
  EXPECT_EQ(encoded_size(message), equivalent.encoded_size());
  EXPECT_EQ(body_size(message), equivalent.at("data").encoded_size());
  EXPECT_EQ(make_payload(message).encoded_size(), equivalent.encoded_size());
}

// --- Random messages -----------------------------------------------------

/// A string whose length straddles a varint boundary now and then.
std::string random_text(Rng& rng, char first) {
  static constexpr std::int64_t kLengths[] = {0, 1, 6, 126, 127, 128, 129, 300};
  const auto length = kLengths[rng.uniform_int(0, 7)];
  std::string text(1, first);
  for (std::int64_t i = 1; i < length; ++i) {
    text += static_cast<char>(rng.uniform_int(0, 255));
  }
  return text;
}

std::int64_t random_int(Rng& rng) {
  return rng.bernoulli(0.5) ? rng.uniform_int(0, 300)
                            : static_cast<std::int64_t>(rng.next_u64());
}

/// An application state: a few entries and a filler whose size straddles
/// the one- and two-byte varint boundaries.
Value random_state(Rng& rng) {
  static constexpr std::int64_t kFillers[] = {0, 127, 128, 16383, 16384, 4000};
  Value entries = Value::map();
  for (std::int64_t i = rng.uniform_int(0, 4); i > 0; --i) {
    entries.set(random_text(rng, 'k'), random_int(rng));
  }
  return Value::map()
      .set("entries", std::move(entries))
      .set("filler",
           Bytes(static_cast<std::size_t>(kFillers[rng.uniform_int(0, 5)]),
                 0x5A));
}

Value random_reply(Rng& rng) {
  Value reply = Value::map()
                    .set("id", random_int(rng))
                    .set("result", Value::map().set("value", random_int(rng)));
  return rng.bernoulli(0.7) ? Value::shared(std::move(reply)) : reply;
}

/// A request key whose numbers straddle digit boundaries now and then, so
/// that their numeric and byte orders differ; `i` keeps keys distinct. Now
/// and then a re-execution record's key.
RequestKey random_key(Rng& rng, std::uint64_t i = 0) {
  static constexpr std::int64_t kClients[] = {0, 1, 9, 10, 99, 100, -1};
  const std::int64_t client = rng.bernoulli(0.7)
                                  ? kClients[rng.uniform_int(0, 6)]
                                  : random_int(rng);
  const auto id = static_cast<std::uint64_t>(random_int(rng)) / 64 * 64 + i;
  return {client, id, rng.bernoulli(0.1)};
}

/// 0 to 32 records with distinct keys, in an order that does not sort.
ReplySnapshot random_snapshot(Rng& rng) {
  ReplySnapshot snapshot;
  const auto count = rng.uniform_int(0, 32);
  for (std::int64_t i = 0; i < count; ++i) {
    snapshot.records.push_back(
        {random_key(rng, static_cast<std::uint64_t>(i)), random_reply(rng)});
  }
  snapshot.from = static_cast<std::uint64_t>(random_int(rng));
  snapshot.upto = static_cast<std::uint64_t>(random_int(rng));
  return snapshot;
}

/// A KV-style delta: changed entries and the keys that are gone.
Value random_delta(Rng& rng) {
  Value gone = Value::list();
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    gone.push_back(random_text(rng, 'g'));
  }
  return Value::map()
      .set("entries", random_state(rng).at("entries"))
      .set("gone", std::move(gone));
}

/// A capture: a delta, or the whole state from an application that tracks
/// no dirty keys, at stream positions of any size.
StateCapture random_capture(Rng& rng) {
  StateCapture capture;
  capture.stream = static_cast<std::uint64_t>(random_int(rng));
  capture.seq = static_cast<std::uint64_t>(random_int(rng));
  capture.base = static_cast<std::uint64_t>(random_int(rng));
  capture.full = rng.bernoulli(0.4);
  capture.state = capture.full ? random_state(rng) : random_delta(rng);
  return capture;
}

Checkpoint random_checkpoint(Rng& rng, bool delta) {
  Checkpoint ckpt;
  ckpt.delta = delta;
  if (!delta) {
    ckpt.state = rng.bernoulli(0.2) ? Value{} : random_state(rng);
  } else if (rng.bernoulli(0.7)) {
    ckpt.capture = random_capture(rng);
  }
  ckpt.replies = random_snapshot(rng);
  if (!delta) ckpt.replies.from = 0;
  ckpt.pending_reply = random_reply(rng);
  return ckpt;
}

JoinSnapshot random_join(Rng& rng) {
  JoinSnapshot join;
  if (rng.bernoulli(0.2)) return join;  // a brick with nothing to ship
  join.state = rng.bernoulli(0.3) ? Value{} : random_state(rng);
  if (rng.bernoulli(0.6)) {
    join.ckpt_stream = random_int(rng);
    join.ckpt_seq = random_int(rng);
  }
  join.replies = random_snapshot(rng);
  join.replies->from = 0;
  return join;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 17, 2024};
constexpr int kRounds = 40;

TEST(ReplicaMessageEncoding, CheckpointsMatchTheirValueMaps) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      const bool delta = rng.bernoulli(0.5);
      expect_same_encoding({PeerPhase::kAfter, PeerKind::kCheckpoint,
                            random_key(rng), random_checkpoint(rng, delta)});
    }
  }
}

TEST(ReplicaMessageEncoding, StateCapturesMatchTheirCaptureMaps) {
  // Every delta checkpoint carries a capture: deltas and full-state
  // fallbacks, with states whose size straddles the one-, two- and
  // three-byte varint boundaries of their filler and of the checkpoint map.
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      Checkpoint ckpt = random_checkpoint(rng, /*delta=*/true);
      ckpt.capture = random_capture(rng);
      expect_same_encoding({PeerPhase::kAfter, PeerKind::kCheckpoint,
                            random_key(rng), std::move(ckpt)});
    }
  }
  // The smallest and the largest stream positions, both shapes, empty
  // states.
  for (const bool full : {false, true}) {
    for (const std::uint64_t position : {std::uint64_t{0}, ~std::uint64_t{0}}) {
      Checkpoint ckpt;
      ckpt.delta = true;
      ckpt.capture = StateCapture{position, position, position, full,
                                  full ? Value::map() : Value{}};
      ckpt.pending_reply = Value::shared(Value::map().set("id", 1));
      expect_same_encoding({PeerPhase::kAfter, PeerKind::kCheckpoint,
                            RequestKey{1, 1}, std::move(ckpt)});
    }
  }
}

TEST(ReplicaMessageEncoding, AcksMatchTheirValueMaps) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      CheckpointAck ack;
      if (rng.bernoulli(0.5)) ack.seq = random_int(rng);
      if (rng.bernoulli(0.5)) {
        ack.upto = static_cast<std::uint64_t>(random_int(rng));
      }
      expect_same_encoding(
          {PeerPhase::kAfter, PeerKind::kCheckpointAck, random_key(rng), ack});
    }
  }
}

TEST(ReplicaMessageEncoding, JoinSnapshotsMatchTheirValueMaps) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      expect_same_encoding(
          {PeerPhase::kCtrl, PeerKind::kJoinAck, random_join(rng)});
    }
  }
}

TEST(ReplicaMessageEncoding, ValueBodiesMatchTheirValueMaps) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      Value data = Value::map().set("request", random_state(rng));
      const auto phase = static_cast<PeerPhase>(rng.uniform_int(0, 3));
      const auto kind = static_cast<PeerKind>(rng.uniform_int(1, 9));
      if (rng.bernoulli(0.7)) {
        // A body that names its request repeats the key's text.
        const RequestKey key = random_key(rng);
        data.set("key", text(key));
        expect_same_encoding({phase, kind, key, std::move(data)});
      } else {
        expect_same_encoding({phase, kind, std::move(data)});
      }
    }
  }
  // Bodies that are not maps, or empty ones, name no request.
  expect_same_encoding({PeerPhase::kCtrl, PeerKind::kJoin, Value::map()});
  expect_same_encoding({PeerPhase::kCtrl, PeerKind::kAbort, Value(7)});
}

TEST(ReplicaMessageEncoding, SnapshotEntriesEncodeInKeyOrder) {
  // FIFO order is not key order: the bytes sort the entries, the list keeps
  // the FIFO order.
  ReplySnapshot snapshot;
  for (const RequestKey key : {RequestKey{9, 1}, RequestKey{10, 2},
                               RequestKey{1, 3}}) {
    snapshot.records.push_back({key, Value::shared(Value::map().set("id", 1))});
  }
  const ReplicaMessage message{
      PeerPhase::kCtrl, PeerKind::kJoinAck,
      JoinSnapshot{Value{}, std::nullopt, std::nullopt, snapshot}};
  const Value decoded = Value::decode(encode(message));
  const Value& replies = decoded.at("data").at("replies");
  ASSERT_EQ(replies.at("entries").size(), 3u);
  EXPECT_EQ(replies.at("entries").as_map().begin()->first, "c10:2");
  EXPECT_EQ(replies.at("order").at(0).as_string(), "c9:1");
  EXPECT_EQ(replies.at("order").at(2).as_string(), "c1:3");
}

TEST(ReplicaMessageEncoding, KeysEncodeInTheByteOrderOfTheirText) {
  // Keys whose numeric order and text order differ: (1,9) < (1,10) <
  // (1,100) < (9,1) < (10,1) as numbers, but "c10:1" < "c1:10" < "c1:100"
  // < "c1:9" < "c9:1" as bytes (':' sorts after the digits). A re-execution
  // record sorts after them all.
  const RequestKey keys[] = {{9, 1}, {10, 1}, {1, 9}, {1, 10}, {1, 100},
                             {1, 9, /*exec=*/true}};
  ReplySnapshot snapshot;
  for (const RequestKey& key : keys) {
    snapshot.records.push_back(
        {key, Value::shared(Value::map()
                                .set("id", static_cast<std::int64_t>(key.id))
                                .set("result", key.client))});
  }
  snapshot.upto = 9;
  ReplySnapshot delta = snapshot;
  delta.from = 3;

  // A full snapshot (a join), a full checkpoint, a delta checkpoint.
  expect_same_encoding({PeerPhase::kCtrl, PeerKind::kJoinAck,
                        JoinSnapshot{Value{}, std::nullopt, std::nullopt,
                                     snapshot}});
  Checkpoint full;
  full.state = Value::map();
  full.replies = snapshot;
  full.pending_reply = snapshot.records[3].reply;
  expect_same_encoding(
      {PeerPhase::kAfter, PeerKind::kCheckpoint, keys[3], std::move(full)});
  Checkpoint incremental;
  incremental.delta = true;
  incremental.replies = delta;
  incremental.pending_reply = snapshot.records[4].reply;
  const ReplicaMessage message{PeerPhase::kAfter, PeerKind::kCheckpoint,
                               keys[4], std::move(incremental)};
  expect_same_encoding(message);

  const Value decoded = Value::decode(encode(message));
  EXPECT_EQ(decoded.at("key").as_string(), "c1:100");
  EXPECT_EQ(decoded.at("data").at("key").as_string(), "c1:100");
  std::vector<std::string> entries;
  for (const auto& [key, reply] : decoded.at("data").at("rlog").at("entries").as_map()) {
    entries.push_back(key);
  }
  EXPECT_EQ(entries, (std::vector<std::string>{"c10:1", "c1:10", "c1:100",
                                               "c1:9", "c9:1", "exec:c1:9"}));
  const Value& order = decoded.at("data").at("rlog").at("order");
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.at(0).as_string(), "c9:1") << "the list keeps FIFO order";
  EXPECT_EQ(order.at(5).as_string(), "exec:c1:9");
}

TEST(RequestKeyText, PrintsAsTheWireText) {
  EXPECT_EQ(text(RequestKey{7, 42}), "c7:42");
  EXPECT_EQ(strf("request ", RequestKey{10, 1}, " failed"),
            "request c10:1 failed");
  EXPECT_EQ(text(RequestKey{3, 4, true}), "exec:c3:4");
  const RequestKey widest{std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::uint64_t>::max(), true};
  EXPECT_EQ(text(widest),
            "exec:c-9223372036854775808:18446744073709551615");
  for (const RequestKey key : {RequestKey{0, 0}, RequestKey{-1, 9},
                               RequestKey{99, 100}, widest}) {
    EXPECT_EQ(KeyText::size_of(key), text(key).size()) << key;
  }
  EXPECT_TRUE(text_less({10, 1}, {9, 1}));
  EXPECT_TRUE(RequestKey({9, 1}) < RequestKey({10, 1}));
}

// --- Client requests ------------------------------------------------------

/// The map Client::transmit built before requests were typed.
Value request_value(const ClientRequest& request) {
  Value payload = Value::map();
  payload.set("client", request.client)
      .set("id", static_cast<std::int64_t>(request.id))
      .set("request", request.request);
  if (request.trace != 0) {
    payload.set("trace", static_cast<std::int64_t>(request.trace));
  }
  return payload;
}

void expect_same_encoding(const ClientRequest& request) {
  const Value equivalent = request_value(request);
  EXPECT_EQ(encode(request), equivalent.encode());
  EXPECT_EQ(encoded_size(request), equivalent.encoded_size());
  EXPECT_EQ(make_payload(request).encoded_size(), equivalent.encoded_size());
}

TEST(ClientRequestEncoding, RequestsMatchTheirValueMaps) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(strf("seed ", seed, " round ", round));
      ClientRequest request;
      request.client = rng.uniform_int(0, 300);
      request.id = static_cast<std::uint64_t>(random_int(rng));
      // Traced or not: a trace id is never 0.
      if (rng.bernoulli(0.5)) {
        request.trace = static_cast<std::uint64_t>(random_int(rng)) | 1;
      }
      request.request = rng.bernoulli(0.5)
                            ? random_state(rng)
                            : Value::map()
                                  .set("op", "incr")
                                  .set("key", random_text(rng, 'k'))
                                  .set("by", random_int(rng));
      expect_same_encoding(request);
    }
  }
}

TEST(ClientRequestEncoding, EdgeRequestsMatchTheirValueMaps) {
  // Extreme ids and trace ids, and requests that are no map or a cell.
  for (const std::uint64_t n : {std::uint64_t{1}, ~std::uint64_t{0}}) {
    expect_same_encoding({0, n, n, Value{}});
    expect_same_encoding({-1, n, 0, Value(7)});
  }
  expect_same_encoding(
      {3, 4, 5, Value::shared(Value::map().set("op", "get").set("key", "k"))});
}

TEST(ClientRequestEncoding, PayloadCarriesTheTypedRequest) {
  const Payload payload = make_payload(ClientRequest{9, 2, 0, Value(1)});
  const ClientRequest* request = payload.get_if<ClientRequest>();
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->client, 9);
  EXPECT_EQ(request->id, 2u);
  EXPECT_EQ(request->request, Value(1));
  EXPECT_EQ(payload.get_if<ReplicaMessage>(), nullptr);
  EXPECT_THROW((void)payload.value(), ValueError);
}

// --- Tag checks on access ------------------------------------------------

TEST(ReplicaPayload, TypedAccessIsTagChecked) {
  const Payload typed = make_payload({PeerPhase::kAfter, PeerKind::kCheckpointAck,
                                      RequestKey{1, 1}, CheckpointAck{}});
  ASSERT_NE(typed.get_if<ReplicaMessage>(), nullptr);
  EXPECT_EQ(typed.get_if<Value>(), nullptr);
  EXPECT_THROW((void)typed.value(), ValueError);

  const Payload plain{Value::map().set("from", 1)};
  EXPECT_EQ(plain.get_if<ReplicaMessage>(), nullptr);
  EXPECT_THROW((void)plain.get<ReplicaMessage>(), ValueError);
  EXPECT_EQ(plain->at("from").as_int(), 1);
}

TEST(ReplicaPayload, PeerMessageHandsOutTheBodyItCarries) {
  const Payload payload =
      make_payload({PeerPhase::kAfter, PeerKind::kCheckpointAck,
                    RequestKey{4, 2}, CheckpointAck{3, 5}});
  const PeerMessage message(payload, 1);
  EXPECT_EQ(message.phase, PeerPhase::kAfter);
  EXPECT_EQ(message.kind, PeerKind::kCheckpointAck);
  EXPECT_EQ(message.key, (RequestKey{4, 2}));
  EXPECT_EQ(message.from, 1);
  EXPECT_EQ(message.body<CheckpointAck>().upto, 5u);
  EXPECT_THROW((void)message.body<Checkpoint>(), FtmError);
  EXPECT_THROW((void)message.data(), FtmError);

  const Payload forward =
      make_payload({PeerPhase::kBefore, PeerKind::kRequest, RequestKey{4, 3},
                    Value::map().set("key", "c4:3")});
  const PeerMessage request(forward, 0);
  EXPECT_EQ(request.key, (RequestKey{4, 3}));
  EXPECT_EQ(request.data().at("key").as_string(), "c4:3");
  EXPECT_THROW((void)request.body<CheckpointAck>(), FtmError);
}

}  // namespace
}  // namespace rcs::ftm::testing
