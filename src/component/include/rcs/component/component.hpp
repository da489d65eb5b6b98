// Component base class.
//
// A component is an instance of a registered type living inside a Composite.
// It exposes its services through dynamic invocation
// (invoke(service, op, args) -> Value) and reaches other components only
// through its references (call(reference, op, args)), which the composite
// binds to their targets when it makes a wire. This indirection is the
// paper's key enabler: a reconfiguration script can replace the component at
// the other end of a wire between two requests, and the caller never notices.
//
// A reference may also be typed: the caller names the C++ face it expects of
// the target (resolve_face), the composite resolves it once when it makes
// the wire, and every call is then a virtual call through face<F>(reference)
// with no Value arguments. The lookup is still per call, through the same
// binding call() uses, so a rewired reference reaches its new target on the
// next call.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rcs/common/value.hpp"
#include "rcs/component/ports.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::sim {
class Host;
}

namespace rcs::comp {

class Composite;

class Component {
 public:
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ComponentTypeInfo& info() const { return *info_; }
  [[nodiscard]] const std::string& type_name() const { return info_->type_name; }
  [[nodiscard]] LifecycleState state() const { return state_; }
  [[nodiscard]] bool started() const { return state_ == LifecycleState::kStarted; }

  /// The composite this component lives in (null until added).
  [[nodiscard]] Composite* composite() const { return composite_; }
  /// The simulated host the composite is deployed on (may be null in tests).
  [[nodiscard]] sim::Host* host() const;

  // --- Properties -------------------------------------------------------
  [[nodiscard]] const Value& properties() const { return properties_; }
  [[nodiscard]] Value property(const std::string& key) const;
  void set_property(const std::string& key, Value value);

  // --- Dynamic invocation -------------------------------------------------
  /// Invoke an operation on one of this component's services. Throws
  /// ComponentError if the component is stopped or the service is undeclared.
  Value invoke(const std::string& service, const std::string& op, const Value& args);

 protected:
  Component() = default;

  /// Service dispatch. The default serves no Value ops and throws
  /// ComponentError: a component reached only through a typed face keeps it.
  virtual Value on_invoke(const std::string& service, const std::string& op,
                          const Value& args);

  /// Lifecycle hooks.
  virtual void on_start() {}
  virtual void on_stop() {}
  virtual void on_property_changed(const std::string& /*key*/) {}

  /// Call through one of this component's references: one hop to the
  /// component the composite bound it to when the wire was made.
  Value call(std::string_view reference, const std::string& op,
             const Value& args = {});

  /// True if the reference is currently wired (for optional references).
  [[nodiscard]] bool wired(std::string_view reference) const;

  /// The C++ face this component calls `reference` through, resolved on
  /// the target of a wire being made. Composite::wire calls it once per
  /// wire and keeps the result in the binding until the wire goes. Null,
  /// the default, means the reference is only reached through call(). An
  /// override throws ComponentError to refuse a target that lacks the face,
  /// which fails the wire.
  virtual void* resolve_face(const PortSpec& reference, Component& target);

  /// The bound target of a typed reference, as the face resolve_face gave
  /// for its wire. Throws ComponentError, as call() does, if the reference
  /// is unwired or its target is stopped.
  template <class Face>
  [[nodiscard]] Face& face(std::string_view reference) {
    return *static_cast<Face*>(bound_face(reference));
  }

  /// Throws ComponentError unless the component is started, as invoke()
  /// does; for typed entry points that bypass invoke().
  void ensure_started(const std::string& service) const;

 private:
  friend class Composite;

  /// Where one reference is wired. Composite::wire fills the slot (after
  /// checking the target declares the service) and unwire clears it, so the
  /// slots are the composite's wire set.
  struct Binding {
    Component* target{nullptr};
    std::string service;
    void* face{nullptr};  // resolve_face's answer for this wire
  };

  /// The slot of a declared reference, or null if the type has none by that
  /// name.
  [[nodiscard]] Binding* binding(std::string_view reference);
  [[nodiscard]] const Binding* binding(std::string_view reference) const;

  /// The bound slot of `reference`; throws ComponentError if the component
  /// has no such reference or it is unwired.
  [[nodiscard]] const Binding& bound(std::string_view reference) const;
  /// face()'s untyped core.
  [[nodiscard]] void* bound_face(std::string_view reference) const;

  /// invoke() once the service is known to be declared.
  Value dispatch(const std::string& service, const std::string& op,
                 const Value& args);

  std::string name_;
  const ComponentTypeInfo* info_{nullptr};
  Composite* composite_{nullptr};
  LifecycleState state_{LifecycleState::kStopped};
  Value properties_{Value::map()};
  std::vector<Binding> bindings_;  // indexed like info().references
};

/// A component implemented by a single std::function — handy for tests and
/// tiny adapters. Dispatches every (service, op) pair to the handler.
class LambdaComponent : public Component {
 public:
  using Handler =
      std::function<Value(const std::string& service, const std::string& op,
                          const Value& args)>;

  static ComponentTypeInfo make_type(std::string type_name,
                                     std::vector<PortSpec> services,
                                     std::vector<PortSpec> references,
                                     Handler handler);

 protected:
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& args) override {
    return handler_(service, op, args);
  }

 private:
  explicit LambdaComponent(Handler handler) : handler_(std::move(handler)) {}

  Handler handler_;
};

}  // namespace rcs::comp
