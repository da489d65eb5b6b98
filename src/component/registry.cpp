#include "rcs/component/registry.hpp"

#include "rcs/common/strf.hpp"
#include "rcs/component/component.hpp"

namespace rcs::comp {

const PortSpec* ComponentTypeInfo::find_service(const std::string& name) const {
  for (const auto& port : services) {
    if (port.name == name) return &port;
  }
  return nullptr;
}

const PortSpec* ComponentTypeInfo::find_reference(const std::string& name) const {
  for (const auto& port : references) {
    if (port.name == name) return &port;
  }
  return nullptr;
}

ComponentRegistry& ComponentRegistry::instance() {
  static ComponentRegistry registry;
  return registry;
}

void ComponentRegistry::register_type(ComponentTypeInfo info) {
  ensure(!info.type_name.empty(), "register_type: empty type name");
  ensure(static_cast<bool>(info.factory), "register_type: type '",
         info.type_name, "' has no factory");
  const std::lock_guard<std::mutex> lock(*mutex_);
  // Idempotent re-registration keeps tests simple (register_components() may
  // be called from several fixtures); the first registration wins.
  types_.emplace(info.type_name, std::move(info));
}

bool ComponentRegistry::has(const std::string& type_name) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return types_.contains(type_name);
}

const ComponentTypeInfo& ComponentRegistry::info_locked(
    const std::string& type_name) const {
  const auto it = types_.find(type_name);
  if (it == types_.end()) {
    throw ComponentError(strf("unknown component type '", type_name, "'"));
  }
  return it->second;
}

const ComponentTypeInfo& ComponentRegistry::info(const std::string& type_name) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return info_locked(type_name);
}

std::vector<std::string> ComponentRegistry::type_names() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  std::vector<std::string> names;
  names.reserve(types_.size());
  for (const auto& [name, _] : types_) names.push_back(name);
  return names;
}

std::unique_ptr<Component> ComponentRegistry::create(const std::string& type_name) const {
  ComponentTypeInfo::Factory factory;
  {
    const std::lock_guard<std::mutex> lock(*mutex_);
    factory = info_locked(type_name).factory;
  }
  // Run the factory outside the lock: factories are user code and may touch
  // the registry themselves.
  return factory();
}

}  // namespace rcs::comp
