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

Value Component::invoke(const std::string& service, const std::string& op,
                        const Value& args) {
  if (state_ == LifecycleState::kStarted &&
      info_->find_service(service) == nullptr) {
    throw ComponentError(strf("component '", name_, "' (", type_name(),
                              ") does not provide service '", service, "'"));
  }
  return dispatch(service, op, args);
}

Value Component::dispatch(const std::string& service, const std::string& op,
                          const Value& args) {
  ensure_started(service);
  return on_invoke(service, op, args);
}

Value Component::on_invoke(const std::string& service, const std::string& op,
                           const Value& /*args*/) {
  throw ComponentError(strf("component '", name_, "' (", type_name(),
                            ") serves no Value ops; call it through its typed "
                            "face (service '", service, "', op '", op, "')"));
}

void Component::ensure_started(const std::string& service) const {
  if (state_ != LifecycleState::kStarted) {
    throw ComponentError(strf("invoke on stopped component '", name_, "' (",
                              type_name(), "), service '", service, "'"));
  }
}

const Component::Binding& Component::bound(std::string_view reference) const {
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
  return *slot;
}

Value Component::call(std::string_view reference, const std::string& op,
                      const Value& args) {
  const Binding& slot = bound(reference);
  return slot.target->dispatch(slot.service, op, args);
}

void* Component::bound_face(std::string_view reference) const {
  const Binding& slot = bound(reference);
  ensure(slot.face != nullptr, "reference ", name_, ".", reference,
         " has no typed face");
  slot.target->ensure_started(slot.service);
  return slot.face;
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

ComponentTypeInfo LambdaComponent::make_type(std::string type_name,
                                             std::vector<PortSpec> services,
                                             std::vector<PortSpec> references,
                                             Handler handler) {
  ComponentTypeInfo info;
  info.type_name = std::move(type_name);
  info.description = "lambda component";
  info.services = std::move(services);
  info.references = std::move(references);
  info.factory = [handler = std::move(handler)]() {
    return std::unique_ptr<Component>(new LambdaComponent(handler));
  };
  return info;
}

}  // namespace rcs::comp
