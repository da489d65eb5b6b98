#include "rcs/ftm/interfaces.hpp"

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
