// ftm::Client under sustained concurrent load: retransmission determinism,
// pending-map hygiene, and failover behaviour when the preferred replica is
// saturated. Complements tests/ftm/client_backoff_test.cpp, which covers the
// single-client backoff policy in isolation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "../ftm/client_request.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::load::testing {
namespace {

using ftm::Client;
using ftm::testing::install_echo_server;

/// One (re)transmission as the observer saw it.
struct Transmit {
  sim::Time at;
  std::uint64_t client;
  std::uint64_t id;
  int attempt;
  std::uint32_t target;

  auto operator<=>(const Transmit&) const = default;
};

/// N clients hammering one lossy echo server; returns the full transmit
/// timeline (including every backoff-jittered retry).
std::vector<Transmit> lossy_run(std::uint64_t seed) {
  sim::Simulation sim(seed);
  sim::Host& server = sim.add_host("server");
  install_echo_server(server);

  Client::Options options;
  options.timeout = 100 * sim::kMillisecond;
  options.max_attempts = 12;
  options.backoff_jitter = 0.2;

  std::vector<Transmit> transmits;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 6; ++i) {
    sim::Host& host = sim.add_host("c" + std::to_string(i));
    sim.network().link(host.id(), server.id()).drop_rate = 0.25;
    auto client = std::make_unique<Client>(
        host, std::vector<HostId>{server.id()}, options);
    const std::uint64_t tag = host.id().value();
    Client::Observer observer;
    observer.on_transmit = [&transmits, &sim, tag](std::uint64_t id,
                                                   int attempt, HostId target) {
      transmits.push_back({sim.now(), tag, id, attempt, target.value()});
    };
    client->set_observer(std::move(observer));
    clients.push_back(std::move(client));
  }

  // Sustained load: every client fires a request every 50 ms for 2 s, far
  // more in flight than the drop-free case would ever queue.
  for (int burst = 0; burst < 40; ++burst) {
    sim.schedule_at(burst * 50 * sim::kMillisecond, [&clients] {
      for (auto& client : clients) client->send(Value::map().set("op", "ping"));
    });
  }
  sim.run_for(20 * sim::kSecond);

  std::uint64_t outstanding = 0;
  for (auto& client : clients) outstanding += client->outstanding();
  EXPECT_EQ(outstanding, 0u) << "every request must resolve eventually";
  return transmits;
}

TEST(ClientLoad, BackoffJitterTimelineIsSeedDeterministic) {
  const auto a = lossy_run(101);
  const auto b = lossy_run(101);
  ASSERT_GT(a.size(), 240u) << "the drop rate must force real retransmissions";
  EXPECT_EQ(a, b) << "same seed: byte-identical retry timeline, jitter included";

  const auto c = lossy_run(102);
  EXPECT_NE(a, c) << "different seed: the jitter must actually vary";
}

TEST(ClientLoad, GiveUpCleansThePendingMap) {
  sim::Simulation sim(7);
  sim::Host& server = sim.add_host("server");
  install_echo_server(server);
  sim::Host& host = sim.add_host("client");

  Client::Options options;
  options.timeout = 50 * sim::kMillisecond;
  options.max_attempts = 3;
  Client client(host, {server.id()}, options);

  server.crash();  // fail-silent: every request will exhaust its attempts
  int timeouts = 0;
  for (int i = 0; i < 10; ++i) {
    client.send(Value::map().set("op", "ping"), [&timeouts](const Value& r) {
      if (r.has("error")) ++timeouts;
    });
  }
  sim.run_for(30 * sim::kSecond);
  EXPECT_EQ(timeouts, 10) << "the callback fires exactly once per request";
  EXPECT_EQ(client.stats().gave_up, 10u);
  EXPECT_EQ(client.outstanding(), 0u)
      << "gave-up requests must leave no pending-map residue";

  // The client is still usable: revive the server and complete a request.
  server.restart();
  install_echo_server(server);
  bool done = false;
  client.send(Value::map().set("op", "ping"),
              [&done](const Value& r) { done = !r.has("error"); });
  sim.run_for(10 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST(ClientLoad, FailoverSpreadsAttemptsOffTheSaturatedPreferredReplica) {
  sim::Simulation sim(13);
  sim::Host& slow = sim.add_host("slow");
  sim::Host& fast = sim.add_host("fast");
  install_echo_server(slow);
  install_echo_server(fast);
  sim::Host& host = sim.add_host("client");
  // The preferred replica's link is past its knee: a reply takes seconds.
  sim.network().link(host.id(), slow.id()).latency = 3 * sim::kSecond;
  sim.network().link(host.id(), fast.id()).latency = sim::kMillisecond;

  Client::Options options;
  options.timeout = 200 * sim::kMillisecond;
  options.max_attempts = 8;
  Client client(host, {slow.id(), fast.id()}, options);

  std::map<std::uint32_t, int> attempts_by_target;
  Client::Observer observer;
  observer.on_transmit = [&attempts_by_target](std::uint64_t, int,
                                               HostId target) {
    ++attempts_by_target[target.value()];
  };
  client.set_observer(std::move(observer));

  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    sim.schedule_at(i * 100 * sim::kMillisecond, [&client, &ok] {
      client.send(Value::map().set("op", "ping"), [&ok](const Value& r) {
        if (!r.has("error")) ++ok;
      });
    });
  }
  sim.run_for(60 * sim::kSecond);

  EXPECT_EQ(ok, 30) << "every request completes via the healthy replica";
  EXPECT_EQ(client.stats().gave_up, 0u);
  EXPECT_GT(attempts_by_target[fast.id().value()], 0)
      << "failover must actually rotate to the fallback";
  // Fairness: the saturated preferred replica must not monopolize the
  // retries — after the first timeout each request moves on, so the
  // fallback sees at least as many attempts as the sink.
  EXPECT_GE(attempts_by_target[fast.id().value()],
            attempts_by_target[slow.id().value()] / 2)
      << "attempts must spread across the group, not pile onto the sink";
}

}  // namespace
}  // namespace rcs::load::testing
