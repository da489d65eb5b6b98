// The application's faces as the bricks call them: rcs.Server, and the
// delta-checkpoint protocol of rcs.StateManager (capture, ack, retransmit on
// the primary; applied, duplicate and resync on the backup; the full-state
// fallback; join snapshots). Each app runs hostless in its own composite, so
// a test drives both ends of a checkpoint stream by hand.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rcs/app/apps.hpp"
#include "rcs/common/error.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/ftm/interfaces.hpp"

namespace rcs::ftm::testing {
namespace {

/// One application instance in a composite of its own.
class App {
 public:
  explicit App(const std::string& type) : root_("app") {
    app::register_components();
    root_.add(type, "server");
    root_.start("server");
  }

  comp::Component& component() { return root_.child("server"); }
  Server& server() { return dynamic_cast<Server&>(component()); }
  StateManager& state() { return dynamic_cast<StateManager&>(component()); }
  void set_property(const std::string& key, Value value) {
    root_.set_property("server", key, std::move(value));
  }

  Value incr(const std::string& key) {
    return server()
        .process(Value::map().set("op", "incr").set("key", key).set("by", 1))
        .result;
  }
  Value put(const std::string& key, std::int64_t value) {
    return server()
        .process(Value::map().set("op", "put").set("key", key).set("value",
                                                                   value))
        .result;
  }
  /// The kv store's entries map.
  Value entries() { return state().get_state().at("entries"); }

 private:
  comp::Composite root_;
};

std::vector<std::string> keys_of(const Value& map) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : map.as_map()) keys.push_back(key);
  return keys;
}

std::vector<std::string> strings_of(const Value& list) {
  std::vector<std::string> out;
  for (const auto& item : list.as_list()) out.push_back(item.as_string());
  return out;
}

using Keys = std::vector<std::string>;

// --- Primary side: capture, ack, retransmission -----------------------------

TEST(StateManagerFace, AckNarrowsTheNextCaptureAndARetransmissionWidens) {
  App primary(app::kKvStore);
  primary.incr("a");
  const StateCapture first = primary.state().capture_delta();
  EXPECT_FALSE(first.full);
  EXPECT_NE(first.stream, 0u);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.base, 0u);
  EXPECT_EQ(keys_of(first.state.at("entries")), Keys{"a"});

  // The first capture is not acked yet: a retransmission re-captures, and
  // covers the first capture's keys and every later one.
  primary.incr("b");
  const StateCapture retry = primary.state().capture_delta();
  EXPECT_EQ(retry.stream, first.stream);
  EXPECT_EQ(retry.seq, 2u);
  EXPECT_EQ(retry.base, 0u);
  EXPECT_EQ(keys_of(retry.state.at("entries")), (Keys{"a", "b"}));

  // Acking capture 1 forgets only what it covered: "b" was written after it.
  primary.state().ack_delta(1);
  const StateCapture next = primary.state().capture_delta();
  EXPECT_EQ(next.seq, 3u);
  EXPECT_EQ(next.base, 1u);
  EXPECT_EQ(keys_of(next.state.at("entries")), Keys{"b"});

  primary.state().ack_delta(3);
  const StateCapture idle = primary.state().capture_delta();
  EXPECT_EQ(idle.base, 3u);
  EXPECT_TRUE(idle.state.at("entries").as_map().empty());
  // An ack older than the newest one does not move the base back.
  primary.state().ack_delta(2);
  EXPECT_EQ(primary.state().capture_delta().base, 3u);
}

// --- Backup side: applied, duplicate, genesis, gap, unknown stream ----------

TEST(StateManagerFace, GenesisBackupAdoptsAStreamAndAcksADuplicateUnapplied) {
  App primary(app::kKvStore);
  App backup(app::kKvStore);
  primary.incr("a");
  const StateCapture first = primary.state().capture_delta();
  // A backup that never applied anything adopts the stream at its base 0.
  EXPECT_EQ(backup.state().apply_delta(first), DeltaApply::kApplied);
  EXPECT_EQ(backup.entries(), primary.entries());

  // The same seq again (a reordered retransmission) is acked, not applied:
  // a capture carrying other contents under that seq leaves the state alone.
  StateCapture replay = first;
  replay.state = Value::map()
                     .set("entries", Value::map().set("a", 99))
                     .set("gone", Value::list());
  EXPECT_EQ(backup.state().apply_delta(replay), DeltaApply::kDuplicate);
  EXPECT_EQ(backup.entries().at("a").as_int(), 1);

  // The retransmission that widens past it applies on top.
  primary.incr("b");
  const StateCapture wider = primary.state().capture_delta();
  EXPECT_EQ(backup.state().apply_delta(wider), DeltaApply::kApplied);
  EXPECT_EQ(backup.entries(), primary.entries());
}

TEST(StateManagerFace, AGapAsksForAResync) {
  App primary(app::kKvStore);
  App backup(app::kKvStore);
  primary.incr("a");
  ASSERT_EQ(backup.state().apply_delta(primary.state().capture_delta()),
            DeltaApply::kApplied);
  primary.state().ack_delta(1);
  // Capture 2 never reaches this backup, but the rest of the group acks it.
  primary.incr("b");
  const StateCapture lost = primary.state().capture_delta();
  primary.state().ack_delta(lost.seq);
  primary.incr("c");
  const StateCapture past = primary.state().capture_delta();
  ASSERT_EQ(past.base, 2u);
  EXPECT_EQ(backup.state().apply_delta(past), DeltaApply::kResync);
  EXPECT_FALSE(backup.entries().has("c"));

  // A genesis backup cannot adopt a stream past its base either.
  App fresh(app::kKvStore);
  EXPECT_EQ(fresh.state().apply_delta(past), DeltaApply::kResync);
}

TEST(StateManagerFace, AnUnknownStreamAsksForAResync) {
  App primary(app::kKvStore);
  App backup(app::kKvStore);
  primary.incr("a");
  const StateCapture first = primary.state().capture_delta();
  ASSERT_EQ(backup.state().apply_delta(first), DeltaApply::kApplied);
  // A new primary (after a promotion) captures on a stream of its own, from
  // its own base 0.
  StateCapture other = first;
  other.stream = first.stream + 1;
  other.seq = 5;
  EXPECT_EQ(backup.state().apply_delta(other), DeltaApply::kResync);
}

// --- Applications without delta tracking -------------------------------------

TEST(StateManagerFace, AnAppWithoutDeltasCapturesItsFullState) {
  App primary(app::kCounter);
  App backup(app::kCounter);
  primary.incr("n");
  primary.incr("n");
  const StateCapture capture = primary.state().capture_delta();
  EXPECT_TRUE(capture.full);
  EXPECT_EQ(capture.seq, 1u);
  EXPECT_EQ(capture.state, primary.state().get_state());
  EXPECT_EQ(backup.state().apply_delta(capture), DeltaApply::kApplied);
  EXPECT_EQ(backup.state().get_state().at("value").as_int(), 2);

  // A full capture replaces the state whatever the backup held, and anchors
  // it in the stream: the next full capture of that stream applies too.
  primary.incr("n");
  primary.state().ack_delta(1);
  EXPECT_EQ(backup.state().apply_delta(primary.state().capture_delta()),
            DeltaApply::kApplied);
  EXPECT_EQ(backup.state().get_state().at("value").as_int(), 3);
}

// --- Join snapshots -------------------------------------------------------

TEST(StateManagerFace, ImportFullAnchorsTheJoinerAndResetsItsCaptureSide) {
  App master(app::kKvStore);
  App joiner(app::kKvStore);
  // The joiner served as a primary before: its capture side is at seq 2.
  joiner.incr("old");
  (void)joiner.state().capture_delta();
  const StateCapture joiner_before = joiner.state().capture_delta();
  ASSERT_EQ(joiner_before.seq, 2u);

  master.incr("a");
  master.incr("b");
  (void)master.state().capture_delta();
  const JoinSnapshot snapshot = master.state().export_full();
  ASSERT_TRUE(snapshot.state && snapshot.ckpt_stream && snapshot.ckpt_seq);
  EXPECT_EQ(*snapshot.ckpt_seq, 1);
  EXPECT_FALSE(snapshot.replies.has_value());

  joiner.state().import_full(snapshot);
  EXPECT_EQ(joiner.entries(), master.entries());

  // Anchored in the master's stream: capture 1 is a duplicate, capture 2
  // (base 0, not acked) applies on top.
  master.incr("c");
  const StateCapture second = master.state().capture_delta();
  EXPECT_EQ(joiner.state().apply_delta(second), DeltaApply::kApplied);
  EXPECT_EQ(joiner.entries(), master.entries());
  StateCapture first = second;
  first.seq = 1;
  EXPECT_EQ(joiner.state().apply_delta(first), DeltaApply::kDuplicate);

  // Its own capture side restarted: a fresh stream from seq 1, base 0,
  // with no dirty keys of its own (a backup of that stream resyncs first).
  const StateCapture restarted = joiner.state().capture_delta();
  EXPECT_NE(restarted.stream, joiner_before.stream);
  EXPECT_EQ(restarted.seq, 1u);
  EXPECT_EQ(restarted.base, 0u);
  EXPECT_TRUE(restarted.state.at("entries").as_map().empty());
  EXPECT_TRUE(restarted.state.at("gone").as_list().empty());

  EXPECT_THROW(joiner.state().import_full(JoinSnapshot{}), LogicError);
}

// --- A state replacement and the next delta ---------------------------------

TEST(StateManagerFace, DeltaAfterSetStateShipsOldAndNewKeys) {
  App app(app::kKvStore);
  app.put("a", 1);
  app.put("b", 2);
  app.put("c", 3);
  app.put("e", 5);
  app.state().ack_delta(app.state().capture_delta().seq);
  ASSERT_TRUE(app.state().capture_delta().state.at("entries").as_map().empty());

  // Keys in both states ("b" changed, "c" kept), gone ones ("a", "e") and a
  // new one ("d").
  const Value replacement =
      Value::map().set("entries", Value::map().set("b", 20).set("c", 3).set(
                                      "d", 40));
  app.state().set_state(replacement);
  EXPECT_EQ(app.entries(), replacement.at("entries"));

  const StateCapture delta = app.state().capture_delta();
  EXPECT_EQ(delta.state.at("entries"), replacement.at("entries"));
  EXPECT_EQ(strings_of(delta.state.at("gone")), (Keys{"a", "e"}));

  // Replaced by the empty state, every key it held is gone.
  app.state().ack_delta(delta.seq);
  app.state().set_state(Value::map().set("entries", Value::map()));
  const StateCapture emptied = app.state().capture_delta();
  EXPECT_TRUE(emptied.state.at("entries").as_map().empty());
  EXPECT_EQ(strings_of(emptied.state.at("gone")), (Keys{"b", "c", "d"}));
}

// --- Properties read when set -------------------------------------------------

TEST(AppProperties, AMidRunSetTakesEffectOnTheNextRequest) {
  App app(app::kKvStore);
  EXPECT_EQ(app.server().process(Value::map().set("op", "get").set("key", "k"))
                .cpu,
            5 * sim::kMillisecond);
  app.set_property("cpu_us", std::int64_t{1234});
  EXPECT_EQ(app.server().process(Value::map().set("op", "get").set("key", "k"))
                .cpu,
            1234);

  EXPECT_EQ(app.incr("n").at("value").as_int(), 1);
  app.set_property("primary_bug", true);
  EXPECT_EQ(app.incr("n").at("value").as_int(), -2);
  app.set_property("primary_bug", false);
  EXPECT_EQ(app.incr("n").at("value").as_int(), 3);

  // The filler pads the state to the size, plus its own key and header.
  const auto padded_to = [&](std::size_t size) {
    const std::size_t actual = app.state().get_state().encoded_size();
    return actual >= size && actual < size + 16;
  };
  EXPECT_TRUE(padded_to(4096));
  app.set_property("state_size", std::int64_t{10000});
  EXPECT_TRUE(padded_to(10000));
}

TEST(AppProperties, APropertySetBeforeStartIsReadOnStart) {
  app::register_components();
  comp::Composite root("app");
  root.add(app::kKvStore, "server");
  root.set_property("server", "cpu_us", std::int64_t{77});
  root.start("server");
  auto& server = dynamic_cast<Server&>(root.child("server"));
  EXPECT_EQ(server.process(Value::map().set("op", "get").set("key", "k")).cpu,
            77);
}

// --- Reached only through the faces ----------------------------------------

TEST(StateManagerFace, OutsideCallersReachItOnlyWhenStartedAndDeclared) {
  app::register_components();
  comp::Composite root("app");
  root.add(app::kKvStore, "kv");
  root.add(app::kTransformer, "stateless");
  root.start("stateless");
  // Declared but stopped; started but without a state service.
  EXPECT_THROW((void)state_manager_of(root.child("kv")), ComponentError);
  EXPECT_THROW((void)state_manager_of(root.child("stateless")), ComponentError);
  root.start("kv");
  EXPECT_NO_THROW((void)state_manager_of(root.child("kv")).get_state());
}

}  // namespace
}  // namespace rcs::ftm::testing
