#include "rcs/component/component.hpp"

#include "rcs/common/strf.hpp"
#include "rcs/component/composite.hpp"

namespace rcs::comp {

sim::Host* Component::host() const {
  return composite_ ? composite_->host() : nullptr;
}

Value Component::property(const std::string& key) const {
  return properties_.get_or(key, Value{});
}

void Component::set_property(const std::string& key, Value value) {
  properties_.set(key, std::move(value));
  on_property_changed(key);
}

void Component::ensure_started(const std::string& service) const {
  if (state_ != LifecycleState::kStarted) {
    throw ComponentError(strf("invoke on stopped component '", name_, "' (",
                              type_name(), "), service '", service, "'"));
  }
}

void* Component::bound_face(std::size_t slot) const {
  ensure(composite_ != nullptr, "component '", name_,
         "' is not inside a composite");
  ensure(slot < bindings_.size(), "'", name_, "' (", type_name(),
         ") has no reference slot ", slot);
  const Binding& binding = bindings_[slot];
  const std::string& reference = info_->references[slot].name;
  if (binding.target == nullptr) {
    throw ComponentError(strf(composite_->name(),
                              ": call through unwired reference ", name_, ".",
                              reference));
  }
  ensure(binding.face != nullptr, "reference ", name_, ".", reference,
         " has no typed face");
  binding.target->ensure_started(binding.service);
  return binding.face;
}

void* Component::resolve_face(const PortSpec& /*reference*/,
                              Component& /*target*/) {
  return nullptr;
}

}  // namespace rcs::comp
