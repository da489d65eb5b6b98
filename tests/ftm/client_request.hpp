// Client requests for tests that send one without an ftm::Client, or that
// stand in for the replicas: the typed ClientRequest envelope, as the
// client builds it and the kernel reads it.
#pragma once

#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"

namespace rcs::ftm::testing {

/// The payload of request `id` from `client`, untraced, as Client::send
/// builds it.
inline Payload client_request(HostId client, std::uint64_t id, Value request) {
  return make_payload(ClientRequest{client.value(), id, 0, std::move(request)});
}

/// A stub server: answers every request, retransmissions included, with
/// {id, result: {echo: request}}.
inline void install_echo_server(sim::Host& server) {
  server.register_handler(msg::kRequest, [&server](const sim::Message& m) {
    const auto& request = m.payload.get<ClientRequest>();
    server.send(HostId{static_cast<std::uint32_t>(request.client)}, msg::kReply,
                Value::map()
                    .set("id", static_cast<std::int64_t>(request.id))
                    .set("result", Value::map().set("echo", request.request)));
  });
}

}  // namespace rcs::ftm::testing
