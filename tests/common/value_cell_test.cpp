// Shared immutable Value cells (Value::shared): a cell reads exactly like the
// Value it holds, copies of it share one held Value, and a mutable access
// detaches the holder that makes it — never the others. Cells cross threads
// (chaos_runner --jobs shares tables of them), so copies, reads and detaches
// of one cell from several threads must be race-free.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rcs/common/error.hpp"
#include "rcs/common/payload.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

Value reply(std::int64_t id) {
  return Value::map().set("id", id).set(
      "result", Value::map().set("check", "ok").set("value", id * 10));
}

TEST(ValueCell, ReadsLikeTheValueItHolds) {
  const Value inline_reply = reply(7);
  const Value cell = Value::shared(inline_reply);
  EXPECT_TRUE(cell.is_shared());
  EXPECT_FALSE(inline_reply.is_shared());
  EXPECT_EQ(cell.type(), Value::Type::kMap);
  EXPECT_TRUE(cell.is_map());
  EXPECT_STREQ(cell.type_name(), "map");
  EXPECT_EQ(cell.size(), 2u);
  EXPECT_TRUE(cell.has("result"));
  EXPECT_EQ(cell.at("id").as_int(), 7);
  EXPECT_EQ(cell.at("result").at("check").as_string(), "ok");
  EXPECT_EQ(cell.get_or("missing", Value(3)).as_int(), 3);
  std::vector<std::string> keys;
  for (const auto& [key, value] : cell.as_map()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"id", "result"}));
  EXPECT_EQ(cell, inline_reply);
  EXPECT_EQ(inline_reply, cell);
  EXPECT_EQ(cell.encode(), inline_reply.encode());
  EXPECT_EQ(cell.encoded_size(), inline_reply.encoded_size());
  EXPECT_EQ(cell.to_string(), inline_reply.to_string());
  EXPECT_THROW((void)cell.as_list(), ValueError);
}

TEST(ValueCell, ScalarCellsReadLikeScalars) {
  EXPECT_EQ(Value::shared(Value(5)).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value::shared(Value(5)).as_double(), 5.0);
  EXPECT_DOUBLE_EQ(Value::shared(Value(2.5)).as_double(), 2.5);
  EXPECT_TRUE(Value::shared(Value(true)).as_bool());
  EXPECT_EQ(Value::shared(Value("s")).as_string(), "s");
  EXPECT_EQ(Value::shared(Value(Bytes{1, 2})).as_bytes(), (Bytes{1, 2}));
  EXPECT_TRUE(Value::shared(Value()).is_null());
  EXPECT_THROW((void)Value::shared(Value(5)).as_string(), ValueError);
}

TEST(ValueCell, CopiesShareOneHeldValue) {
  const Value cell = Value::shared(reply(1));
  const Value copy = cell;  // NOLINT(performance-unnecessary-copy-initialization)
  const Value again = Value::shared(cell);
  EXPECT_TRUE(again.is_shared());
  EXPECT_EQ(&copy.as_map(), &cell.as_map());
  EXPECT_EQ(&again.as_map(), &cell.as_map());
}

TEST(ValueCell, SetOnACopyLeavesOtherHoldersUnchanged) {
  const Value cell = Value::shared(reply(2));
  Value mine = cell;
  mine.set("id", 99);
  EXPECT_FALSE(mine.is_shared());
  EXPECT_EQ(mine.at("id").as_int(), 99);
  EXPECT_TRUE(cell.is_shared());
  EXPECT_EQ(cell, reply(2));

  Value list_cell = Value::shared(Value(ValueList{Value(1)}));
  const Value list_holder = list_cell;
  list_cell.push_back(2);
  EXPECT_EQ(list_cell.size(), 2u);
  EXPECT_EQ(list_holder.size(), 1u);
  EXPECT_TRUE(list_holder.is_shared());
}

TEST(ValueCell, MutationInsideAContainerDetachesOnlyThatSlot) {
  const Value cell = Value::shared(reply(3));
  Value outer = Value::map().set("a", cell).set("b", cell);
  outer.as_map().at("a").as_map().at("result").set("check", "changed");
  EXPECT_FALSE(outer.at("a").is_shared());
  EXPECT_TRUE(outer.at("b").is_shared());
  EXPECT_EQ(outer.at("a").at("result").at("check").as_string(), "changed");
  EXPECT_EQ(outer.at("b"), reply(3));
  EXPECT_EQ(cell, reply(3));
}

TEST(ValueCell, NullCellBecomesAMapOnSet) {
  Value cell = Value::shared(Value());
  const Value holder = cell;
  cell.set("k", 1);
  EXPECT_EQ(cell.at("k").as_int(), 1);
  EXPECT_TRUE(holder.is_null());
}

TEST(ValueCell, MovedFromCellReadsAsNull) {
  Value cell = Value::shared(reply(8));
  const Value taken = std::move(cell);
  EXPECT_EQ(taken, reply(8));
  EXPECT_TRUE(cell.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(cell.encoded_size(), Value().encoded_size());
  cell.set("k", 1);
  EXPECT_EQ(cell.at("k").as_int(), 1);
}

TEST(ValueCell, DecodeNeverMakesACell) {
  const Value tree =
      Value::map().set("log", Value::map().set("k1", Value::shared(reply(4))));
  const Value decoded = Value::decode(tree.encode());
  EXPECT_EQ(decoded, tree);
  EXPECT_FALSE(decoded.is_shared());
  EXPECT_FALSE(decoded.at("log").is_shared());
  EXPECT_FALSE(decoded.at("log").at("k1").is_shared());
}

TEST(ValueCell, PayloadAdoptsACellWithoutCopying) {
  const Value cell = Value::shared(reply(5));
  const Payload payload(cell);
  EXPECT_EQ(&payload.value().as_map(), &cell.as_map());
  EXPECT_FALSE(payload.value().is_shared()) << "payloads read the held Value";
  EXPECT_EQ(payload.encoded_size(), cell.encoded_size());
  EXPECT_EQ(Payload().encoded_size(), Value().encoded_size());
}

TEST(ValueCellThreads, FourThreadsCopyReadAndDetachOneCell) {
  const Value cell = Value::shared(reply(6));
  const std::size_t size = cell.encoded_size();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cell, &mismatches, size, t] {
      for (int i = 0; i < 2000; ++i) {
        const Value copy = cell;  // NOLINT(performance-unnecessary-copy-initialization)
        if (copy.at("result").at("value").as_int() != 60) ++mismatches[t];
        if (copy.encoded_size() != size) ++mismatches[t];
        Value mine = cell;
        mine.set("thread", t);
        if (mine.at("thread").as_int() != t || cell.has("thread")) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  EXPECT_EQ(cell, reply(6));
}

}  // namespace
}  // namespace rcs
