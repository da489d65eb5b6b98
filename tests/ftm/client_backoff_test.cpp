// Client retransmission backoff: a fixed timeout shorter than the true
// round-trip keeps retransmitting requests whose reply is already in flight;
// capped exponential backoff stops that redundant traffic while still
// riding out real message loss (a 30% drop-rate link here).
#include <gtest/gtest.h>

#include "client_request.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm::testing {
namespace {

/// Drive `count` sequential requests; returns total retransmissions.
std::uint64_t run_workload(Client& client, sim::Simulation& sim, int count) {
  for (int i = 0; i < count; ++i) {
    bool done = false;
    Value request = Value::map();
    request.set("n", i);
    client.send(std::move(request), [&](const Value&) { done = true; });
    const sim::Time deadline = sim.now() + 60 * sim::kSecond;
    while (!done && sim.now() < deadline) {
      if (sim.loop().empty()) break;
      sim.loop().step();
    }
    EXPECT_TRUE(done) << "request " << i << " never completed";
  }
  return client.stats().retries;
}

Client::Options lossy_options(double backoff_factor) {
  Client::Options options;
  // Timeout deliberately well below the 2 x 300 ms round trip: the fixed
  // policy fires several times while the reply is still in flight, while
  // backoff stretches past the RTT after the first retry.
  options.timeout = 150 * sim::kMillisecond;
  options.max_attempts = 20;
  options.backoff_factor = backoff_factor;
  options.backoff_max = 2 * sim::kSecond;
  options.backoff_jitter = 0.1;
  return options;
}

TEST(ClientBackoff, FewerRedundantRetransmitsUnderDropRate) {
  constexpr int kRequests = 40;
  const auto run = [](double backoff_factor) {
    sim::Simulation sim(77);
    sim::Host& server = sim.add_host("server");
    sim::Host& client_host = sim.add_host("client");
    auto& link = sim.network().link(server.id(), client_host.id());
    link.latency = 300 * sim::kMillisecond;
    link.drop_rate = 0.3;
    install_echo_server(server);
    Client client{client_host, {server.id()}, lossy_options(backoff_factor)};
    const auto retries = run_workload(client, sim, kRequests);
    EXPECT_EQ(client.stats().ok, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(client.stats().gave_up, 0u);
    return retries;
  };

  const std::uint64_t fixed = run(1.0);      // legacy fixed timeout
  const std::uint64_t backoff = run(2.0);    // capped exponential backoff
  EXPECT_GT(fixed, static_cast<std::uint64_t>(kRequests))
      << "fixed timeout below the RTT must produce redundant retransmits";
  EXPECT_LT(backoff, fixed)
      << "backoff must retransmit less under the same loss";
  EXPECT_LT(static_cast<double>(backoff), 0.75 * static_cast<double>(fixed))
      << "expected a substantial reduction";
}

TEST(ClientBackoff, DelayGrowsExponentiallyAndCaps) {
  sim::Simulation sim(1);
  sim::Host& server = sim.add_host("server");
  sim::Host& client_host = sim.add_host("client");
  Client::Options options;
  options.timeout = 100 * sim::kMillisecond;
  options.backoff_factor = 2.0;
  options.backoff_max = 900 * sim::kMillisecond;
  Client client{client_host, {server.id()}, options};
  EXPECT_EQ(client.backoff_delay(1), 100 * sim::kMillisecond);
  EXPECT_EQ(client.backoff_delay(2), 200 * sim::kMillisecond);
  EXPECT_EQ(client.backoff_delay(3), 400 * sim::kMillisecond);
  EXPECT_EQ(client.backoff_delay(4), 800 * sim::kMillisecond);
  EXPECT_EQ(client.backoff_delay(5), 900 * sim::kMillisecond) << "capped";
  EXPECT_EQ(client.backoff_delay(12), 900 * sim::kMillisecond);
}

TEST(ClientBackoff, FactorOneRecoversFixedTimeout) {
  sim::Simulation sim(1);
  sim::Host& server = sim.add_host("server");
  sim::Host& client_host = sim.add_host("client");
  Client::Options options;
  options.timeout = 250 * sim::kMillisecond;
  options.backoff_factor = 1.0;
  Client client{client_host, {server.id()}, options};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(client.backoff_delay(attempt), 250 * sim::kMillisecond);
  }
}

TEST(ClientBackoff, ObserverSeesSendTransmitComplete) {
  sim::Simulation sim(5);
  sim::Host& server = sim.add_host("server");
  sim::Host& client_host = sim.add_host("client");
  install_echo_server(server);
  Client client{client_host, {server.id()}};

  std::vector<std::string> events;
  Client::Observer observer;
  observer.on_send = [&](std::uint64_t id, const Value&) {
    events.push_back("send:" + std::to_string(id));
  };
  observer.on_transmit = [&](std::uint64_t id, int attempt, HostId) {
    events.push_back("tx:" + std::to_string(id) + "/" +
                     std::to_string(attempt));
  };
  observer.on_complete = [&](std::uint64_t id, const Value& reply) {
    events.push_back((reply.has("error") ? "err:" : "ok:") +
                     std::to_string(id));
  };
  client.set_observer(std::move(observer));

  client.send(Value::map().set("n", 1));
  sim.run_for(2 * sim::kSecond);
  EXPECT_EQ(events,
            (std::vector<std::string>{"send:1", "tx:1/1", "ok:1"}));
}

}  // namespace
}  // namespace rcs::ftm::testing
