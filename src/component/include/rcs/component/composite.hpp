// Composite: the reconfigurable component assembly.
//
// A composite owns child components and the wires between them, and exposes
// the paper's "minimal API for fine-grained adaptation" (§4.4):
//   - control over component lifecycle at runtime (add/remove/start/stop),
//   - control over interactions (wire/unwire reference-service connections),
//   - introspection (children, wires, states, properties),
//   - integrity validation (every started component's required references
//     wired to existing components with matching interfaces).
// The RScript interpreter drives exactly this API, journaling inverse
// operations for transactional rollback. A composite makes no calls of its
// own: a child calls another through the typed face of a wire
// (Component::face), and a caller outside holds a child's C++ face.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rcs/common/error.hpp"
#include "rcs/common/value.hpp"
#include "rcs/component/component.hpp"
#include "rcs/component/ports.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::sim {
class Host;
}

namespace rcs::comp {

class HostLibrary;

/// Deployment context of a composite.
struct CompositeEnv {
  sim::Host* host{nullptr};             // deployment target (null in unit tests)
  const HostLibrary* library{nullptr};  // installed types; null = everything
  const ComponentRegistry* registry{nullptr};  // null = global registry
};

class Composite {
 public:
  using Env = CompositeEnv;

  explicit Composite(std::string name, Env env = {});
  ~Composite();

  Composite(const Composite&) = delete;
  Composite& operator=(const Composite&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Host* host() const { return env_.host; }
  [[nodiscard]] const ComponentRegistry& registry() const;

  // --- Lifecycle control (the script verbs) -------------------------------
  /// Instantiate `type_name` as child `instance_name` (state kStopped).
  /// Throws ComponentError if the name is taken, the type is unknown, or the
  /// host library does not have the type installed.
  Component& add(const std::string& type_name, const std::string& instance_name);

  /// Remove a stopped, fully unwired child. Throws otherwise.
  void remove(const std::string& instance_name);

  /// Start a child; all its required references must be wired.
  void start(const std::string& instance_name);
  /// Stop a child (idempotent).
  void stop(const std::string& instance_name);

  /// Connect from.reference -> to.service. Both components must exist, the
  /// ports must be declared, interfaces must match, and the reference must
  /// not already be wired. Binds the reference to `to` and to the face the
  /// caller's resolve_face gives, so a call through it does no lookup.
  void wire(const std::string& from, const std::string& reference,
            const std::string& to, const std::string& service);
  /// Disconnect a reference. Throws if it is not wired.
  void unwire(const std::string& from, const std::string& reference);

  void set_property(const std::string& instance_name, const std::string& key,
                    Value value);
  [[nodiscard]] Value property(const std::string& instance_name,
                               const std::string& key) const;

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] bool has(const std::string& instance_name) const;
  [[nodiscard]] Component& child(const std::string& instance_name);
  [[nodiscard]] const Component& child(const std::string& instance_name) const;
  [[nodiscard]] std::vector<std::string> children() const;
  [[nodiscard]] std::vector<WireInfo> wires() const;
  [[nodiscard]] bool is_wired(const std::string& from,
                              const std::string& reference) const;

  /// Integrity constraints (checked by the script engine before commit):
  ///  - every started component's required references are wired;
  ///  - every wire connects existing components on declared ports with
  ///    matching interfaces (guaranteed by construction, revalidated here).
  [[nodiscard]] Status validate() const;

 private:
  std::string name_;
  Env env_;
  // The wires live in the children: each component's per-reference binding
  // slots (see Component::face).
  std::map<std::string, std::unique_ptr<Component>> children_;
};

}  // namespace rcs::comp
