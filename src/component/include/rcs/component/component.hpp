// Component base class.
//
// A component is an instance of a registered type living inside a Composite.
// It reaches other components only through its references, which the
// composite binds to their targets when it makes a wire. This indirection is
// the paper's key enabler: a reconfiguration script can replace the
// component at the other end of a wire between two requests, and the caller
// never notices.
//
// A reference is typed: the caller names the C++ face it expects of the
// target (resolve_face), the composite resolves it once when it makes the
// wire, and every call is then a virtual call through face<F>(slot) with no
// Value arguments. A slot is the reference's index in the type's
// ComponentTypeInfo::references, which each type declares as constants and
// checks when it is registered. The lookup is still per call, through the
// slot's binding, so a rewired reference reaches its new target on the next
// call.
#pragma once

#include <string>
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

 protected:
  Component() = default;

  /// Lifecycle hooks.
  virtual void on_start() {}
  virtual void on_stop() {}
  virtual void on_property_changed(const std::string& /*key*/) {}

  /// True if the reference in `slot` is currently wired (for optional
  /// references); false for a slot the type does not declare.
  [[nodiscard]] bool wired(std::size_t slot) const {
    return slot < bindings_.size() && bindings_[slot].target != nullptr;
  }

  /// The C++ face this component calls `reference` through, resolved on
  /// the target of a wire being made. Composite::wire calls it once per
  /// wire and keeps the result in the binding until the wire goes. Null,
  /// the default, means the reference has no face: it can be wired, but a
  /// call through it throws LogicError. An override throws ComponentError
  /// to refuse a target that lacks the face, which fails the wire.
  virtual void* resolve_face(const PortSpec& reference, Component& target);

  /// The bound target of the reference in `slot`, as the face resolve_face
  /// gave for its wire. Throws ComponentError if the reference is unwired
  /// or its target is stopped, and LogicError if the type declares no such
  /// slot or the wire holds no face.
  template <class Face>
  [[nodiscard]] Face& face(std::size_t slot) {
    return *static_cast<Face*>(bound_face(slot));
  }

  /// Throws ComponentError unless the component is started: the check
  /// face() makes on a wire's target, for typed entry points called from
  /// outside the composite.
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

  /// face()'s untyped core.
  [[nodiscard]] void* bound_face(std::size_t slot) const;

  std::string name_;
  const ComponentTypeInfo* info_{nullptr};
  Composite* composite_{nullptr};
  LifecycleState state_{LifecycleState::kStopped};
  Value properties_{Value::map()};
  std::vector<Binding> bindings_;  // indexed like info().references
};

}  // namespace rcs::comp
