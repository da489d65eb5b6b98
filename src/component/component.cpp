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

void* Component::bound_face(std::string_view reference) const {
  ensure(composite_ != nullptr, "component '", name_,
         "' is not inside a composite");
  const Binding* slot = binding(reference);
  if (slot == nullptr) {
    throw ComponentError(strf(composite_->name(), ": '", name_, "' (",
                              type_name(), ") has no reference '", reference,
                              "'"));
  }
  if (slot->target == nullptr) {
    throw ComponentError(strf(composite_->name(),
                              ": call through unwired reference ", name_, ".",
                              reference));
  }
  ensure(slot->face != nullptr, "reference ", name_, ".", reference,
         " has no typed face");
  slot->target->ensure_started(slot->service);
  return slot->face;
}

void* Component::resolve_face(const PortSpec& /*reference*/,
                              Component& /*target*/) {
  return nullptr;
}

bool Component::wired(std::string_view reference) const {
  const Binding* slot = composite_ != nullptr ? binding(reference) : nullptr;
  return slot != nullptr && slot->target != nullptr;
}

Component::Binding* Component::binding(std::string_view reference) {
  const auto& references = info_->references;
  for (std::size_t i = 0; i < references.size(); ++i) {
    if (references[i].name == reference) return &bindings_[i];
  }
  return nullptr;
}

const Component::Binding* Component::binding(std::string_view reference) const {
  return const_cast<Component*>(this)->binding(reference);
}

}  // namespace rcs::comp
