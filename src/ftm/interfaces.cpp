#include "rcs/ftm/interfaces.hpp"

#include <algorithm>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/component.hpp"

namespace rcs::ftm {

Role role_from_string(const std::string& text) {
  if (text == "primary") return Role::kPrimary;
  if (text == "backup") return Role::kBackup;
  if (text == "alone") return Role::kAlone;
  throw FtmError(strf("unknown role '", text, "'"));
}

Value RequestCtx::reply_cell(std::uint64_t id, Value result) {
  return Value::shared(Value::map()
                           .set("id", static_cast<std::int64_t>(id))
                           .set("result", std::move(result)));
}

namespace {

// The one dynamic_cast of a typed wire: made here, when the wire is made.
template <class Face>
Face* require_face(const comp::PortSpec& reference, comp::Component& target) {
  auto* face = dynamic_cast<Face*>(&target);
  if (face == nullptr) {
    throw ComponentError(strf("'", target.name(), "' (", target.type_name(),
                              ") does not implement the C++ face of ",
                              reference.interface_name, " that reference '",
                              reference.name, "' calls"));
  }
  return face;
}

}  // namespace

void* typed_face(const comp::PortSpec& reference, comp::Component& target) {
  const std::string& name = reference.interface_name;
  if (name == iface::kSyncBefore || name == iface::kProceed ||
      name == iface::kSyncAfter) {
    return require_face<Brick>(reference, target);
  }
  if (name == iface::kProtocolControl) {
    return require_face<ProtocolControl>(reference, target);
  }
  if (name == iface::kReplyLog) {
    return require_face<ReplyLog>(reference, target);
  }
  if (name == iface::kServer) return require_face<Server>(reference, target);
  if (name == iface::kStateManager) {
    return require_face<StateManager>(reference, target);
  }
  if (name == iface::kAssertion) {
    return require_face<Assertion>(reference, target);
  }
  return nullptr;
}

void check_slots(
    const comp::ComponentTypeInfo& info,
    std::initializer_list<std::pair<std::size_t, std::string_view>> slots) {
  const auto& references = info.references;
  for (const auto& [slot, name] : slots) {
    const auto it =
        std::find_if(references.begin(), references.end(),
                     [name = name](const auto& ref) { return ref.name == name; });
    const bool ok = it != references.end()
                        ? static_cast<std::size_t>(it - references.begin()) == slot
                        : slot >= references.size();
    ensure(ok, info.type_name, ": reference '", name, "' is not in slot ", slot);
  }
}

StateManager& state_manager_of(comp::Component& server) {
  const comp::PortSpec reference{"state", iface::kStateManager};
  if (server.info().find_service(reference.name) == nullptr ||
      !server.started()) {
    throw ComponentError(strf("'", server.name(), "' (", server.type_name(),
                              ") serves no started rcs.StateManager"));
  }
  return *require_face<StateManager>(reference, server);
}

}  // namespace rcs::ftm
