#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "../component/test_types.hpp"
#include "rcs/common/error.hpp"
#include "rcs/script/interpreter.hpp"
#include "rcs/script/parser.hpp"

namespace rcs::script {
namespace {

TEST(ParseShared, SameSourceGivesTheSameAst) {
  const auto a = parse_shared(R"(add("test.echo", "e1");)");
  const auto b = parse_shared(R"(add("test.echo", "e1");)");
  const auto c = parse_shared(R"(add("test.echo", "e2");)");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->statements.size(), 1u);
}

TEST(ParseShared, MalformedSourceThrowsOnEveryCall) {
  constexpr std::string_view kBroken = R"(add("test.echo" "e1");)";
  std::string first;
  try {
    (void)parse_shared(kBroken);
    FAIL() << "first call did not throw";
  } catch (const ScriptException& e) {
    first = e.what();
  }
  try {
    (void)parse_shared(kBroken);
    FAIL() << "second call did not throw";
  } catch (const ScriptException& e) {
    EXPECT_EQ(e.what(), first);
  }
  comp::ComponentRegistry registry = comp::testing::make_full_registry();
  comp::Composite root{"ftm", {.registry = &registry}};
  EXPECT_THROW(Interpreter::run_source(kBroken, root), ScriptException);
  EXPECT_TRUE(root.children().empty());
}

TEST(ParseShared, CompositesRunFromOneAstEndAlike) {
  constexpr std::string_view kSource = R"(
    script pipeline {
      add("test.forwarder", "fwd");
      add("test.echo", "echo");
      wire("fwd", "next", "echo", "svc");
      set("echo", "owner", who);
      if (who == "a") { start("echo"); }
      start("fwd");
    }
  )";
  comp::ComponentRegistry registry = comp::testing::make_full_registry();
  comp::Composite first{"ftm", {.registry = &registry}};
  comp::Composite second{"ftm", {.registry = &registry}};
  const Value bindings = Value::map().set("who", "a");
  const auto stats1 = Interpreter::run_source(kSource, first, bindings);
  const auto stats2 = Interpreter::run_source(kSource, second, bindings);

  EXPECT_EQ(stats1.ops, stats2.ops);
  EXPECT_EQ(stats1.by_verb, stats2.by_verb);
  EXPECT_EQ(first.children(), second.children());
  EXPECT_EQ(first.wires(), second.wires());
  for (const auto& name : first.children()) {
    EXPECT_EQ(first.child(name).state(), second.child(name).state()) << name;
  }
  EXPECT_EQ(first.property("echo", "owner"), second.property("echo", "owner"));
  EXPECT_EQ(parse_shared(kSource), parse_shared(kSource));
}

TEST(ParseShared, ConcurrentFirstParsesShareOneAst) {
  // A source no other test uses, so the four threads race for its first
  // parse.
  constexpr std::string_view kSource = R"(log("parse race"); start("x");)";
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Script>> parsed(kThreads);
  std::latch ready(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&parsed, &ready, kSource, i] {
      ready.arrive_and_wait();
      parsed[static_cast<std::size_t>(i)] = parse_shared(kSource);
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto& script : parsed) {
    ASSERT_NE(script, nullptr);
    EXPECT_EQ(script, parsed.front()) << "callers got different ASTs";
  }
}

}  // namespace
}  // namespace rcs::script
