#include "rcs/component/composite.hpp"

#include <algorithm>
#include <tuple>

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/package.hpp"

namespace rcs::comp {

Composite::Composite(std::string name, Env env)
    : name_(std::move(name)), env_(env) {}

Composite::~Composite() = default;

const ComponentRegistry& Composite::registry() const {
  return env_.registry ? *env_.registry : ComponentRegistry::instance();
}

Component& Composite::add(const std::string& type_name,
                          const std::string& instance_name) {
  if (children_.contains(instance_name)) {
    throw ComponentError(strf(name_, ": component name '", instance_name,
                              "' already in use"));
  }
  if (env_.library != nullptr && !env_.library->installed(type_name)) {
    throw ComponentError(strf(name_, ": type '", type_name,
                              "' is not installed on this host; upload the "
                              "package first"));
  }
  const ComponentTypeInfo& info = registry().info(type_name);
  auto component = info.factory();
  ensure(component != nullptr, "factory for '", type_name, "' returned null");
  component->name_ = instance_name;
  component->info_ = &info;
  component->composite_ = this;
  component->properties_ = info.default_properties;
  component->bindings_.resize(info.references.size());
  Component& ref = *component;
  children_.emplace(instance_name, std::move(component));
  log().trace("comp", name_, ": add ", instance_name, " : ", type_name);
  return ref;
}

void Composite::remove(const std::string& instance_name) {
  Component& c = child(instance_name);
  if (c.state() != LifecycleState::kStopped) {
    throw ComponentError(strf(name_, ": cannot remove started component '",
                              instance_name, "'"));
  }
  // A component with any attached wire (either side) may not be removed;
  // scripts must disconnect first, exactly as the paper's FScript examples do.
  for (const auto& wire : wires()) {
    if (wire.from_component == instance_name ||
        wire.to_component == instance_name) {
      throw ComponentError(strf(name_, ": cannot remove wired component '",
                                instance_name, "' (", wire.from_component, ".",
                                wire.reference, " -> ", wire.to_component, ".",
                                wire.service, ")"));
    }
  }
  children_.erase(instance_name);
  log().trace("comp", name_, ": remove ", instance_name);
}

void Composite::start(const std::string& instance_name) {
  Component& c = child(instance_name);
  if (c.state() == LifecycleState::kStarted) return;
  for (const auto& ref : c.info().references) {
    if (ref.required && !is_wired(instance_name, ref.name)) {
      throw ComponentError(strf(name_, ": cannot start '", instance_name,
                                "': required reference '", ref.name,
                                "' is not wired"));
    }
  }
  c.state_ = LifecycleState::kStarted;
  c.on_start();
  log().trace("comp", name_, ": start ", instance_name);
}

void Composite::stop(const std::string& instance_name) {
  Component& c = child(instance_name);
  if (c.state() == LifecycleState::kStopped) return;
  c.on_stop();
  c.state_ = LifecycleState::kStopped;
  log().trace("comp", name_, ": stop ", instance_name);
}

void Composite::wire(const std::string& from, const std::string& reference,
                     const std::string& to, const std::string& service) {
  Component& from_c = child(from);
  Component& to_c = child(to);
  const PortSpec* ref_spec = from_c.info().find_reference(reference);
  if (ref_spec == nullptr) {
    throw ComponentError(strf(name_, ": '", from, "' (", from_c.type_name(),
                              ") has no reference '", reference, "'"));
  }
  const PortSpec* svc_spec = to_c.info().find_service(service);
  if (svc_spec == nullptr) {
    throw ComponentError(strf(name_, ": '", to, "' (", to_c.type_name(),
                              ") has no service '", service, "'"));
  }
  if (ref_spec->interface_name != svc_spec->interface_name) {
    throw ComponentError(strf(
        name_, ": interface mismatch wiring ", from, ".", reference, " (",
        ref_spec->interface_name, ") -> ", to, ".", service, " (",
        svc_spec->interface_name, ")"));
  }
  Component::Binding& slot =
      from_c.bindings_[ref_spec - from_c.info().references.data()];
  if (slot.target != nullptr) {
    throw ComponentError(strf(name_, ": reference ", from, ".", reference,
                              " is already wired"));
  }
  void* face = from_c.resolve_face(*ref_spec, to_c);
  slot = {&to_c, service, face};
  log().trace("comp", name_, ": wire ", from, ".", reference, " -> ", to, ".",
              service);
}

void Composite::unwire(const std::string& from, const std::string& reference) {
  if (!is_wired(from, reference)) {
    throw ComponentError(strf(name_, ": reference ", from, ".", reference,
                              " is not wired"));
  }
  Component& c = *children_.at(from);
  c.bindings_[c.info().find_reference(reference) - c.info().references.data()] =
      {};
  log().trace("comp", name_, ": unwire ", from, ".", reference);
}

void Composite::set_property(const std::string& instance_name,
                             const std::string& key, Value value) {
  child(instance_name).set_property(key, std::move(value));
}

Value Composite::property(const std::string& instance_name,
                          const std::string& key) const {
  return child(instance_name).property(key);
}

bool Composite::has(const std::string& instance_name) const {
  return children_.contains(instance_name);
}

Component& Composite::child(const std::string& instance_name) {
  const auto it = children_.find(instance_name);
  if (it == children_.end()) {
    throw ComponentError(strf(name_, ": no component named '", instance_name, "'"));
  }
  return *it->second;
}

const Component& Composite::child(const std::string& instance_name) const {
  const auto it = children_.find(instance_name);
  if (it == children_.end()) {
    throw ComponentError(strf(name_, ": no component named '", instance_name, "'"));
  }
  return *it->second;
}

std::vector<std::string> Composite::children() const {
  std::vector<std::string> names;
  names.reserve(children_.size());
  for (const auto& [name, _] : children_) names.push_back(name);
  return names;
}

std::vector<WireInfo> Composite::wires() const {
  std::vector<WireInfo> result;
  for (const auto& [name, component] : children_) {
    const auto& references = component->info().references;
    for (std::size_t i = 0; i < references.size(); ++i) {
      const Component::Binding& slot = component->bindings_[i];
      if (slot.target == nullptr) continue;
      result.push_back(WireInfo{name, references[i].name, slot.target->name(),
                                slot.service});
    }
  }
  // (from, reference) order; a type declares its references in any order.
  std::sort(result.begin(), result.end(),
            [](const WireInfo& a, const WireInfo& b) {
              return std::tie(a.from_component, a.reference) <
                     std::tie(b.from_component, b.reference);
            });
  return result;
}

bool Composite::is_wired(const std::string& from,
                         const std::string& reference) const {
  const auto it = children_.find(from);
  if (it == children_.end()) return false;
  const ComponentTypeInfo& info = it->second->info();
  const PortSpec* spec = info.find_reference(reference);
  return spec != nullptr && it->second->wired(spec - info.references.data());
}

Status Composite::validate() const {
  for (const auto& [name, component] : children_) {
    if (component->state() != LifecycleState::kStarted) continue;
    for (const auto& ref : component->info().references) {
      if (ref.required && !is_wired(name, ref.name)) {
        return {ErrorCode::kFailedPrecondition,
                strf("started component '", name, "' has unwired required "
                     "reference '", ref.name, "'")};
      }
    }
  }
  for (const auto& wire : wires()) {
    const auto from_it = children_.find(wire.from_component);
    const auto to_it = children_.find(wire.to_component);
    if (from_it == children_.end() || to_it == children_.end()) {
      return {ErrorCode::kInternal,
              strf("dangling wire ", wire.from_component, ".", wire.reference,
                   " -> ", wire.to_component, ".", wire.service)};
    }
    const PortSpec* ref_spec =
        from_it->second->info().find_reference(wire.reference);
    const PortSpec* svc_spec = to_it->second->info().find_service(wire.service);
    if (ref_spec == nullptr || svc_spec == nullptr ||
        ref_spec->interface_name != svc_spec->interface_name) {
      return {ErrorCode::kInternal,
              strf("ill-typed wire ", wire.from_component, ".", wire.reference,
                   " -> ", wire.to_component, ".", wire.service)};
    }
  }
  return Status::ok();
}

}  // namespace rcs::comp
