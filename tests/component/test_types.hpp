// Shared component types for the component, script and ftm tests.
//
// Every I.Echo service a test calls implements one typed face, Echo. A caller
// resolves it with a dynamic_cast when its wire is made, the way
// ftm::typed_face resolves the FTM faces, and then calls it through
// Component::face.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rcs/component/component.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::comp::testing {

/// The C++ face of I.Echo. Each implementation answers `x` its own way, so
/// the answer tells which component a call reached.
class Echo {
 public:
  virtual int echo(int x) = 0;

 protected:
  ~Echo() = default;
};

/// test.upper's answer is x + kUpper; test.optional answers kUnwired when
/// its reference is not wired.
inline constexpr int kUpper = 1000;
inline constexpr int kUnwired = -1;

/// The type info of `Impl` under `type_name`.
template <class Impl>
ComponentTypeInfo test_type(std::string type_name,
                            std::vector<PortSpec> services,
                            std::vector<PortSpec> references = {}) {
  ComponentTypeInfo info;
  info.type_name = std::move(type_name);
  info.services = std::move(services);
  info.references = std::move(references);
  info.factory = [] { return std::make_unique<Impl>(); };
  return info;
}

/// Child `name`'s Echo face, as a caller outside the composite holds it.
inline Echo& echo_of(Composite& root, const std::string& name) {
  return dynamic_cast<Echo&>(root.child(name));
}

/// A component whose references are typed as Echo: a wire resolves the
/// target's face, or null if the target has none.
class EchoCaller : public Component {
 protected:
  void* resolve_face(const PortSpec& /*reference*/,
                     Component& target) override {
    return dynamic_cast<Echo*>(&target);
  }
};

/// "test.echo": answers x.
class EchoServer : public Component, public Echo {
 public:
  int echo(int x) override { return x; }
};

/// "test.upper": answers x + kUpper.
class Upper : public Component, public Echo {
 public:
  int echo(int x) override { return x + kUpper; }
};

/// A component with no face: "test.other", which provides svc(I.Other) as
/// interface-mismatch fodder, and other stand-ins.
class Other : public Component {};

/// Builds a registry with small synthetic types:
///  - "test.echo":      provides svc(I.Echo); answers x
///  - "test.upper":     provides svc(I.Echo); answers x + kUpper
///  - "test.other":     provides svc(I.Other)
/// make_full_registry adds:
///  - "test.forwarder": provides svc(I.Echo), requires next(I.Echo);
///                      forwards every call to `next`
///  - "test.optional":  provides svc(I.Echo), optional reference maybe(I.Echo)
///  - "test.spy":       provides svc(I.Echo) with no face; counts hooks
inline ComponentRegistry make_test_registry() {
  ComponentRegistry registry;
  registry.register_type(
      test_type<EchoServer>("test.echo", {{"svc", "I.Echo"}}));
  registry.register_type(test_type<Upper>("test.upper", {{"svc", "I.Echo"}}));
  registry.register_type(test_type<Other>("test.other", {{"svc", "I.Other"}}));
  return registry;
}

/// Forwards every call through its `next` reference.
class Forwarder : public EchoCaller, public Echo {
 public:
  static ComponentTypeInfo type_info() {
    return test_type<Forwarder>("test.forwarder", {{"svc", "I.Echo"}},
                                {{"next", "I.Echo"}});
  }

  static constexpr std::size_t kNext = 0;  // the one reference slot

  int echo(int x) override { return face<Echo>(kNext).echo(x); }
};

/// Component with an optional reference; calls it only when it is wired.
class MaybeCaller : public EchoCaller, public Echo {
 public:
  static ComponentTypeInfo type_info() {
    return test_type<MaybeCaller>("test.optional", {{"svc", "I.Echo"}},
                                  {{"maybe", "I.Echo", /*required=*/false}});
  }

  static constexpr std::size_t kMaybe = 0;  // the one reference slot

  int echo(int x) override {
    return wired(kMaybe) ? face<Echo>(kMaybe).echo(x) : kUnwired;
  }
};

/// Component that counts lifecycle hook invocations.
class LifecycleSpy : public Component {
 public:
  static int starts;
  static int stops;
  static int property_changes;

  static ComponentTypeInfo type_info() {
    ComponentTypeInfo info =
        test_type<LifecycleSpy>("test.spy", {{"svc", "I.Echo"}});
    info.default_properties.set("mode", "default");
    return info;
  }

  static void reset() { starts = stops = property_changes = 0; }

 protected:
  void on_start() override { ++starts; }
  void on_stop() override { ++stops; }
  void on_property_changed(const std::string&) override { ++property_changes; }
};

inline int LifecycleSpy::starts = 0;
inline int LifecycleSpy::stops = 0;
inline int LifecycleSpy::property_changes = 0;

inline ComponentRegistry make_full_registry() {
  ComponentRegistry registry = make_test_registry();
  registry.register_type(Forwarder::type_info());
  registry.register_type(MaybeCaller::type_info());
  registry.register_type(LifecycleSpy::type_info());
  return registry;
}

}  // namespace rcs::comp::testing
