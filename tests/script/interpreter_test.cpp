#include "rcs/script/interpreter.hpp"

#include <gtest/gtest.h>

#include "../component/test_types.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/script/parser.hpp"

namespace rcs::script {
namespace {

using comp::ComponentRegistry;
using comp::Composite;
using comp::testing::echo_of;

struct InterpreterFixture : ::testing::Test {
  ComponentRegistry registry = comp::testing::make_full_registry();
  Composite root{"ftm", {.registry = &registry}};

  /// Snapshot of the architecture for unchanged-configuration assertions.
  struct Snapshot {
    std::vector<std::string> children;
    std::vector<comp::WireInfo> wires;
    std::vector<std::pair<std::string, comp::LifecycleState>> states;

    bool operator==(const Snapshot&) const = default;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.children = root.children();
    s.wires = root.wires();
    for (const auto& name : s.children) {
      s.states.emplace_back(name, root.child(name).state());
    }
    return s;
  }

  void deploy_pipeline() {
    root.add("test.forwarder", "fwd");
    root.add("test.echo", "echo");
    root.wire("fwd", "next", "echo", "svc");
    root.start("echo");
    root.start("fwd");
  }
};

TEST_F(InterpreterFixture, AddWireStartPipeline) {
  const auto stats = Interpreter::run_source(R"(
    add("test.forwarder", "fwd");
    add("test.echo", "echo");
    wire("fwd", "next", "echo", "svc");
    start("echo");
    start("fwd");
  )",
                                             root);
  EXPECT_EQ(stats.ops, 5);
  EXPECT_EQ(stats.by_verb.at("add"), 2);
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
}

TEST_F(InterpreterFixture, DifferentialReplacementScript) {
  deploy_pipeline();
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
  // The paper's canonical move (§5.2): replace one brick, leave the rest.
  Interpreter::run_source(R"(
    script replace_echo_with_upper {
      stop("echo");
      unwire("fwd", "next");
      remove("echo");
      add("test.upper", "echo2");
      wire("fwd", "next", "echo2", "svc");
      start("echo2");
    }
  )",
                          root);
  EXPECT_FALSE(root.has("echo"));
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1 + comp::testing::kUpper);
  EXPECT_TRUE(root.child("fwd").started()) << "common part untouched";
}

TEST_F(InterpreterFixture, BindingsActAsVariables) {
  Interpreter::run_source(R"(
    add(brick, "c");
    set("c", "mode", role);
  )",
                          root,
                          Value::map()
                              .set("brick", "test.spy")
                              .set("role", "master"));
  EXPECT_EQ(root.property("c", "mode").as_string(), "master");
}

TEST_F(InterpreterFixture, RequirePassesAndFails) {
  deploy_pipeline();
  EXPECT_NO_THROW(Interpreter::run_source(R"(require exists("fwd");)", root));
  EXPECT_THROW(Interpreter::run_source(R"(require exists("ghost");)", root),
               ScriptException);
}

TEST_F(InterpreterFixture, BuiltinIntrospectionFunctions) {
  deploy_pipeline();
  root.stop("echo");
  EXPECT_NO_THROW(Interpreter::run_source(R"(
    require exists("echo");
    require !started("echo");
    require started("fwd");
    require wired("fwd", "next");
    require !wired("echo", "anything");
    require typeof("echo") == "test.echo";
    require typeof("ghost") == null;
  )",
                                          root));
}

TEST_F(InterpreterFixture, PropertyBuiltinReadsValues) {
  root.add("test.spy", "spy");
  EXPECT_NO_THROW(Interpreter::run_source(
      R"(require property("spy", "mode") == "default";)", root));
}

TEST_F(InterpreterFixture, IfElseSelectsBranch) {
  deploy_pipeline();
  Interpreter::run_source(R"(
    if (exists("ghost")) {
      remove("ghost");
    } else {
      add("test.spy", "added_by_else");
    }
  )",
                          root);
  EXPECT_TRUE(root.has("added_by_else"));
}

TEST_F(InterpreterFixture, FailedScriptRollsBackEverything) {
  deploy_pipeline();
  const auto before = snapshot();
  // Fails at the last statement: wiring to a missing component.
  EXPECT_THROW(Interpreter::run_source(R"(
    stop("echo");
    unwire("fwd", "next");
    remove("echo");
    add("test.upper", "upper");
    wire("fwd", "next", "ghost", "svc");
  )",
                                       root),
               ScriptException);
  EXPECT_EQ(snapshot(), before) << "all-or-nothing: architecture unchanged";
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
}

TEST_F(InterpreterFixture, FailedRewireRollsBackToTheOldTarget) {
  deploy_pipeline();
  const auto before = snapshot();
  EXPECT_THROW(Interpreter::run_source(R"(
    add("test.upper", "upper");
    start("upper");
    unwire("fwd", "next");
    wire("fwd", "next", "upper", "svc");
    require false;
  )",
                                       root),
               ScriptException);
  EXPECT_EQ(snapshot(), before);
  // The rolled-back binding reaches echo again, not the removed upper.
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
}

TEST_F(InterpreterFixture, RequireFailureMidScriptRollsBack) {
  deploy_pipeline();
  const auto before = snapshot();
  EXPECT_THROW(Interpreter::run_source(R"(
    add("test.spy", "temp");
    start("temp");
    require exists("not_there");
  )",
                                       root),
               ScriptException);
  EXPECT_EQ(snapshot(), before);
}

TEST_F(InterpreterFixture, IntegrityViolationAtCommitRollsBack) {
  deploy_pipeline();
  const auto before = snapshot();
  // Leaves fwd started with an unwired required reference: passes statement
  // by statement but must be refused at commit time.
  EXPECT_THROW(Interpreter::run_source(R"(unwire("fwd", "next");)", root),
               ScriptException);
  EXPECT_EQ(snapshot(), before);
  EXPECT_TRUE(root.is_wired("fwd", "next"));
}

TEST_F(InterpreterFixture, RollbackRestoresPropertiesOfRemovedComponents) {
  root.add("test.spy", "spy");
  root.set_property("spy", "mode", Value("customized"));
  EXPECT_THROW(Interpreter::run_source(R"(
    remove("spy");
    require false;
  )",
                                       root),
               ScriptException);
  ASSERT_TRUE(root.has("spy"));
  EXPECT_EQ(root.property("spy", "mode").as_string(), "customized");
}

TEST_F(InterpreterFixture, RollbackRestoresUnwiredConnections) {
  deploy_pipeline();
  EXPECT_THROW(Interpreter::run_source(R"(
    stop("fwd");
    unwire("fwd", "next");
    require false;
  )",
                                       root),
               ScriptException);
  EXPECT_TRUE(root.is_wired("fwd", "next"));
  EXPECT_TRUE(root.child("fwd").started());
}

TEST_F(InterpreterFixture, UnknownVerbThrows) {
  EXPECT_THROW(Interpreter::run_source(R"(explode("all");)", root),
               ScriptException);
}

TEST_F(InterpreterFixture, UnknownFunctionThrows) {
  EXPECT_THROW(Interpreter::run_source(R"(require magic("x");)", root),
               ScriptException);
}

TEST_F(InterpreterFixture, UndefinedVariableThrows) {
  EXPECT_THROW(Interpreter::run_source(R"(add(mystery, "x");)", root),
               ScriptException);
}

TEST_F(InterpreterFixture, ArityErrorsThrow) {
  EXPECT_THROW(Interpreter::run_source(R"(wire("a", "b");)", root),
               ScriptException);
  EXPECT_THROW(Interpreter::run_source(R"(stop("a", "b");)", root),
               ScriptException);
}

TEST_F(InterpreterFixture, TypeErrorsInArgumentsThrow) {
  EXPECT_THROW(Interpreter::run_source(R"(stop(42);)", root), ScriptException);
}

TEST_F(InterpreterFixture, SetPropertyAcceptsNonStringValues) {
  root.add("test.spy", "spy");
  Interpreter::run_source(R"(set("spy", "threshold", 42);)", root);
  EXPECT_EQ(root.property("spy", "threshold").as_int(), 42);
}

TEST_F(InterpreterFixture, LogVerbDoesNotMutate) {
  deploy_pipeline();
  const auto before = snapshot();
  CapturingLog capture(LogLevel::kInfo);
  Interpreter::run_source(R"(log("transition starting");)", root);
  EXPECT_TRUE(capture.contains("transition starting"));
  EXPECT_EQ(snapshot(), before);
}

TEST_F(InterpreterFixture, StatsCountVerbsNotControlFlow) {
  const auto stats = Interpreter::run_source(R"(
    let t = "test.spy";
    if (true) { add(t, "a"); } else { add(t, "b"); }
    log("done");
  )",
                                             root);
  EXPECT_EQ(stats.ops, 1);
  EXPECT_EQ(stats.by_verb.size(), 1u);
}

// Property-style sweep: inject a failure after each prefix of a transition
// script and assert the architecture is bit-identical to the initial one.
class RollbackSweep : public InterpreterFixture,
                      public ::testing::WithParamInterface<int> {};

TEST_P(RollbackSweep, FailureAtAnyPointLeavesConfigurationUnchanged) {
  deploy_pipeline();
  const auto before = snapshot();

  const std::vector<std::string> steps = {
      R"(stop("echo");)",
      R"(unwire("fwd", "next");)",
      R"(remove("echo");)",
      R"(add("test.upper", "upper");)",
      R"(wire("fwd", "next", "upper", "svc");)",
      R"(start("upper");)",
  };
  std::string source;
  for (int i = 0; i < GetParam(); ++i) source += steps[i] + "\n";
  source += "require false; // injected failure\n";

  EXPECT_THROW(Interpreter::run_source(source, root), ScriptException);
  EXPECT_EQ(snapshot(), before) << "failure after " << GetParam() << " steps";
}

INSTANTIATE_TEST_SUITE_P(AllPrefixes, RollbackSweep,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace rcs::script
