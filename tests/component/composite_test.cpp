#include "rcs/component/composite.hpp"

#include "rcs/component/package.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "../alloc_counter.hpp"
#include "test_types.hpp"

namespace rcs::comp {
namespace {

using testing::echo_of;
using testing::kUnwired;
using testing::kUpper;
using testing::LifecycleSpy;
using testing::make_full_registry;

struct CompositeFixture : ::testing::Test {
  ComponentRegistry registry = make_full_registry();
  Composite root{"root", {.registry = &registry}};
};

TEST_F(CompositeFixture, AddCreatesStoppedComponent) {
  Component& c = root.add("test.echo", "echo");
  EXPECT_EQ(c.state(), LifecycleState::kStopped);
  EXPECT_EQ(c.name(), "echo");
  EXPECT_EQ(c.type_name(), "test.echo");
  EXPECT_TRUE(root.has("echo"));
}

TEST_F(CompositeFixture, AddRejectsDuplicateName) {
  root.add("test.echo", "x");
  EXPECT_THROW(root.add("test.upper", "x"), ComponentError);
}

TEST_F(CompositeFixture, AddRejectsUnknownType) {
  EXPECT_THROW(root.add("no.such.type", "x"), ComponentError);
}

TEST_F(CompositeFixture, HostLibraryGatesInstantiation) {
  HostLibrary library;
  library.install_type(registry, "test.echo");
  Composite gated{"gated", {.library = &library, .registry = &registry}};
  EXPECT_NO_THROW(gated.add("test.echo", "ok"));
  EXPECT_THROW(gated.add("test.upper", "missing"), ComponentError);
}

TEST_F(CompositeFixture, StartRequiresRequiredReferencesWired) {
  root.add("test.forwarder", "fwd");
  EXPECT_THROW(root.start("fwd"), ComponentError);
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  EXPECT_NO_THROW(root.start("fwd"));
}

TEST_F(CompositeFixture, OptionalReferenceDoesNotBlockStart) {
  root.add("test.optional", "opt");
  EXPECT_NO_THROW(root.start("opt"));
  EXPECT_EQ(echo_of(root, "opt").echo(1), kUnwired);
}

TEST_F(CompositeFixture, OptionalReferenceUsedWhenWired) {
  root.add("test.optional", "opt");
  root.add("test.upper", "upper");
  root.wire("opt", "maybe", "upper", "svc");
  root.start("opt");
  root.start("upper");
  EXPECT_EQ(echo_of(root, "opt").echo(1), 1 + kUpper);
  root.unwire("opt", "maybe");
  EXPECT_EQ(echo_of(root, "opt").echo(1), kUnwired);
}

TEST_F(CompositeFixture, CallsFlowThroughWires) {
  // fwd -> fwd2 -> upper: only upper adds kUpper, and only once.
  root.add("test.forwarder", "fwd");
  root.add("test.forwarder", "fwd2");
  root.add("test.upper", "upper");
  root.wire("fwd", "next", "fwd2", "svc");
  root.wire("fwd2", "next", "upper", "svc");
  root.start("upper");
  root.start("fwd2");
  root.start("fwd");
  EXPECT_EQ(echo_of(root, "fwd").echo(7), 7 + kUpper);
}

TEST_F(CompositeFixture, RewiringRedirectsCallsWithoutTouchingCaller) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.add("test.upper", "upper");
  root.wire("fwd", "next", "echo", "svc");
  root.start("echo");
  root.start("upper");
  root.start("fwd");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);

  // The differential-transition move: swap the wire target while the caller
  // stays started and untouched.
  root.unwire("fwd", "next");
  root.wire("fwd", "next", "upper", "svc");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1 + kUpper);
  root.unwire("fwd", "next");
  root.wire("fwd", "next", "echo", "svc");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
}

TEST_F(CompositeFixture, WireRejectsInterfaceMismatch) {
  root.add("test.forwarder", "fwd");
  root.add("test.other", "other");
  EXPECT_THROW(root.wire("fwd", "next", "other", "svc"), ComponentError);
}

TEST_F(CompositeFixture, WireRejectsUnknownPorts) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  EXPECT_THROW(root.wire("fwd", "bogusref", "echo", "svc"), ComponentError);
  EXPECT_THROW(root.wire("fwd", "next", "echo", "bogussvc"), ComponentError);
  EXPECT_THROW(root.wire("ghost", "next", "echo", "svc"), ComponentError);
}

TEST_F(CompositeFixture, WireRejectsDoubleWiring) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  EXPECT_THROW(root.wire("fwd", "next", "echo", "svc"), ComponentError);
}

TEST_F(CompositeFixture, UnwireOfUnwiredThrows) {
  root.add("test.forwarder", "fwd");
  EXPECT_THROW(root.unwire("fwd", "next"), ComponentError);
}

TEST_F(CompositeFixture, CallThroughUnwiredReferenceThrows) {
  root.add("test.optional", "opt");
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("fwd");
  root.start("echo");
  root.unwire("fwd", "next");
  EXPECT_THROW(echo_of(root, "fwd").echo(1), ComponentError);
}

TEST_F(CompositeFixture, RemoveRequiresStoppedAndUnwired) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("echo");

  EXPECT_THROW(root.remove("echo"), ComponentError);  // started
  root.stop("echo");
  EXPECT_THROW(root.remove("echo"), ComponentError);  // still wired (as target)
  EXPECT_THROW(root.remove("fwd"), ComponentError);   // wired (as source)
  root.unwire("fwd", "next");
  EXPECT_NO_THROW(root.remove("echo"));
  EXPECT_NO_THROW(root.remove("fwd"));
  EXPECT_FALSE(root.has("echo"));
}

TEST_F(CompositeFixture, StopIsIdempotentStartIsIdempotent) {
  LifecycleSpy::reset();
  root.add("test.spy", "spy");
  root.start("spy");
  root.start("spy");
  EXPECT_EQ(LifecycleSpy::starts, 1);
  root.stop("spy");
  root.stop("spy");
  EXPECT_EQ(LifecycleSpy::stops, 1);
}

TEST_F(CompositeFixture, DefaultPropertiesComeFromTypeInfo) {
  root.add("test.spy", "spy");
  EXPECT_EQ(root.property("spy", "mode").as_string(), "default");
}

TEST_F(CompositeFixture, SetPropertyFiresHook) {
  LifecycleSpy::reset();
  root.add("test.spy", "spy");
  root.set_property("spy", "mode", Value("primary"));
  EXPECT_EQ(root.property("spy", "mode").as_string(), "primary");
  EXPECT_EQ(LifecycleSpy::property_changes, 1);
}

TEST_F(CompositeFixture, PropertyOfMissingKeyIsNull) {
  root.add("test.echo", "echo");
  EXPECT_TRUE(root.property("echo", "nope").is_null());
}

TEST_F(CompositeFixture, IntrospectionListsChildrenAndWires) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");

  const auto children = root.children();
  EXPECT_EQ(children.size(), 2u);
  EXPECT_NE(std::find(children.begin(), children.end(), "fwd"), children.end());

  const auto wires = root.wires();
  ASSERT_EQ(wires.size(), 1u);
  EXPECT_EQ(wires[0], (WireInfo{"fwd", "next", "echo", "svc"}));
  EXPECT_TRUE(root.is_wired("fwd", "next"));
  EXPECT_FALSE(root.is_wired("echo", "anything"));
}

TEST_F(CompositeFixture, ValidateDetectsUnwiredRequiredReferenceOfStarted) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("fwd");
  EXPECT_TRUE(root.validate().is_ok());
  root.unwire("fwd", "next");
  const Status s = root.validate();
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("fwd"), std::string::npos);
}

TEST_F(CompositeFixture, ValidateOkOnEmptyComposite) {
  EXPECT_TRUE(root.validate().is_ok());
}

// --- Bound references -------------------------------------------------------
// Composite::wire binds a reference to its target component and face; a call
// is one hop through that binding. These pin what the binding must keep from
// the name-resolved wire set it replaced.

/// Calls through the reference slot it is given (declared or not).
class Dialer : public testing::EchoCaller {
 public:
  // Declared out of name order, so wires() has to sort them.
  static constexpr std::size_t kZeta = 0;
  static constexpr std::size_t kAlpha = 1;

  static ComponentTypeInfo type_info() {
    return testing::test_type<Dialer>(
        "test.dialer", {{"svc", "I.Echo"}},
        {{"zeta", "I.Echo", /*required=*/false},
         {"alpha", "I.Echo", /*required=*/false}});
  }

  int dial(std::size_t slot, int x) {
    return face<testing::Echo>(slot).echo(x);
  }
  [[nodiscard]] bool dialable(std::size_t slot) const { return wired(slot); }
};

Dialer& dialer_of(Composite& root) {
  return dynamic_cast<Dialer&>(root.child("dialer"));
}

std::string error_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const ComponentError& e) {
    return e.what();
  }
  return "no error";
}

TEST_F(CompositeFixture, RemoveAndReAddUnderTheSameNameReachesTheNewInstance) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("echo");
  root.start("fwd");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);

  root.stop("echo");
  root.unwire("fwd", "next");
  root.remove("echo");
  // Park a component on the storage the old instance freed, so the new one
  // lives elsewhere and only the new binding can lead a call to it.
  root.add("test.echo", "parked");
  root.add("test.upper", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("echo");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1 + kUpper);
}

TEST_F(CompositeFixture, CallIntoStoppedTargetThrows) {
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("fwd");
  EXPECT_EQ(error_of([&] { echo_of(root, "fwd").echo(1); }),
            "invoke on stopped component 'echo' (test.echo), service 'svc'");
  root.start("echo");
  EXPECT_EQ(echo_of(root, "fwd").echo(1), 1);
  root.stop("echo");
  EXPECT_THROW(echo_of(root, "fwd").echo(1), ComponentError);
}

TEST_F(CompositeFixture, UnwiredAndUndeclaredReferencesKeepTheirMessages) {
  registry.register_type(Dialer::type_info());
  root.add("test.dialer", "dialer");
  root.start("dialer");
  EXPECT_EQ(error_of([&] { dialer_of(root).dial(Dialer::kAlpha, 1); }),
            "root: call through unwired reference dialer.alpha");
  // An undeclared reference is refused by name when a wire names it, and
  // by slot when a call does.
  root.add("test.echo", "target");
  EXPECT_EQ(error_of([&] { root.wire("dialer", "nope", "target", "svc"); }),
            "root: 'dialer' (test.dialer) has no reference 'nope'");
  EXPECT_THROW(dialer_of(root).dial(2, 1), LogicError);
  EXPECT_FALSE(dialer_of(root).dialable(2));

  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.wire("fwd", "next", "echo", "svc");
  root.start("echo");
  root.start("fwd");
  root.unwire("fwd", "next");
  EXPECT_EQ(error_of([&] { echo_of(root, "fwd").echo(1); }),
            "root: call through unwired reference fwd.next");
}

TEST_F(CompositeFixture, WiresListInFromThenReferenceOrder) {
  registry.register_type(Dialer::type_info());
  root.add("test.dialer", "dialer");
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "echo");
  root.add("test.upper", "upper");
  root.wire("fwd", "next", "upper", "svc");
  root.wire("dialer", "zeta", "upper", "svc");
  root.wire("dialer", "alpha", "echo", "svc");
  EXPECT_EQ(root.wires(), (std::vector<WireInfo>{
                              {"dialer", "alpha", "echo", "svc"},
                              {"dialer", "zeta", "upper", "svc"},
                              {"fwd", "next", "upper", "svc"},
                          }));
  EXPECT_TRUE(root.is_wired("dialer", "zeta"));
  EXPECT_FALSE(root.is_wired("dialer", "nope"));
  EXPECT_FALSE(root.is_wired("ghost", "zeta"));
  EXPECT_THROW(root.remove("upper"), ComponentError);  // wired as target
  // Each slot reaches the target wired to its reference.
  for (const char* name : {"upper", "echo", "dialer"}) root.start(name);
  EXPECT_EQ(dialer_of(root).dial(Dialer::kZeta, 1), 1 + kUpper);
  EXPECT_EQ(dialer_of(root).dial(Dialer::kAlpha, 1), 1);
}

TEST_F(CompositeFixture, CallThroughBoundWireMakesNoHeapAllocation) {
  // The allocation gate of the request path's component layer: a face call
  // from a started component through a bound wire allocates nothing.
  root.add("test.forwarder", "fwd");
  root.add("test.echo", "sink");
  root.wire("fwd", "next", "sink", "svc");
  root.start("sink");
  root.start("fwd");
  testing::Echo& fwd = echo_of(root, "fwd");
  int sum = 0;
  const std::size_t before = test::allocations();
  for (int i = 0; i < 100; ++i) sum += fwd.echo(i);
  EXPECT_EQ(test::allocations(), before);
  EXPECT_EQ(sum, 4950);
}

TEST_F(CompositeFixture, ChildLookupFailureThrows) {
  EXPECT_THROW((void)root.child("ghost"), ComponentError);
  EXPECT_THROW(root.start("ghost"), ComponentError);
  EXPECT_THROW(root.stop("ghost"), ComponentError);
  EXPECT_THROW(root.remove("ghost"), ComponentError);
}

}  // namespace
}  // namespace rcs::comp
