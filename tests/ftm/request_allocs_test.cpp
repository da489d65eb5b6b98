// Allocation gates of the request path: heap allocations per request on a
// two-replica deployment, counted after warm-up. A request crosses the whole
// FTM composite — kernel pipeline, typed brick / control / reply-log /
// application calls, the replica messages and their delivery — so a
// regression anywhere on that path (a Value map where a typed call was, a
// copy of a replica message, a client envelope rebuilt per attempt) shows
// up here. Allocation counts are
// deterministic for a given build, so the gates are exact where a timing
// gate would be flaky.
#include <gtest/gtest.h>

#include <utility>

#include "../alloc_counter.hpp"
#include "client_request.hpp"
#include "duplex_fixture.hpp"
#include "rcs/ftm/reply_log.hpp"

namespace rcs::ftm::testing {
namespace {

using RequestAllocs = DuplexFixture;

constexpr int kWarmup = 64;
constexpr int kMeasured = 256;

/// PBR with delta checkpoints: checkpoint to the backup and its ack.
/// Measured at 18.0 allocations per request once the client sent one typed
/// envelope per request, the checkpoint and the kernel shared one reply
/// cell, references were called by slot and content digests encoded into
/// a reused buffer (23.0 with typed application faces; 32.0 with
/// string-dispatched Value ops into the app; 40.2 with Value map envelopes
/// and snapshots; 48.2 before replies became shared cells, 74.2 before
/// replica messages kept their sender beside the payload, 141.7 before the
/// calls inside the composite were typed), plus 5%.
constexpr double kMaxPbrAllocsPerRequest = 18.9;

/// PBR with full checkpoints: the state and the whole reply log ship with
/// every request. Measured at 18.0 allocations per request with a typed
/// client envelope and one reply cell per request (23.0 with typed
/// application faces and a backup that replaces its KV map in place; 35.0
/// with Value ops into the app and a map rebuilt on every checkpoint; 50.6
/// with Value map envelopes and snapshots; 182.6 when exports and imports
/// deep-copied every reply), plus 5%.
constexpr double kMaxPbrFullAllocsPerRequest = 18.9;

/// LFR: the leader forwards each request and notifies the follower, which
/// stashes the notification until its own pipeline reaches After. Measured
/// at 22.0 allocations per request with a typed client envelope and digests
/// encoded into a reused buffer (28.0 with typed application faces; 36.0
/// with Value ops into the app; 39.8 with Value map envelopes; 42.8 when
/// the reply log deep-copied each reply; 66.8 with a Value ctx and a
/// stamped copy of every replica message), plus 5%.
constexpr double kMaxLfrAllocsPerRequest = 23.1;

TEST_F(RequestAllocs, PbrDeltaRequestStaysWithinAllocationBudget) {
  deploy(FtmConfig::pbr());
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) roundtrip(kv_incr(strf("k", i % 8)));
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt0.kernel().counters().deltas_sent, std::uint64_t{kWarmup + kMeasured});
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxPbrAllocsPerRequest);
}

TEST_F(RequestAllocs, PbrFullRequestStaysWithinAllocationBudget) {
  FtmConfig config = FtmConfig::pbr();
  config.delta_checkpoint = false;
  deploy(config);
  // Every checkpoint then ships the state and the whole reply log, full.
  static_assert(kWarmup > ReplyLogComponent::kCapacity);
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) roundtrip(kv_incr(strf("k", i % 8)));
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt0.kernel().counters().full_checkpoints_sent,
            std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(rt0.kernel().counters().deltas_sent, std::uint64_t{0});
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxPbrFullAllocsPerRequest);
}

TEST_F(RequestAllocs, LfrRequestStaysWithinAllocationBudget) {
  deploy(FtmConfig::lfr());
  // A slower follower on a fast replica link reaches After only after the
  // leader's notification and the client's reply arrived: the notification
  // is stashed first, and still held when the reply comes back.
  h1.capacity().cpu_speed = 0.75;
  sim.network().link(h0.id(), h1.id()).latency = 100;
  for (int i = 0; i < kWarmup; ++i) roundtrip(kv_incr(strf("k", i % 8)));

  int stashed = 0;
  const std::size_t before = rcs::test::allocations();
  for (int i = 0; i < kMeasured; ++i) {
    roundtrip(kv_incr(strf("k", i % 8)));
    if (rt1.kernel().stashed() > 0) ++stashed;
  }
  const double per_request =
      static_cast<double>(rcs::test::allocations() - before) / kMeasured;

  EXPECT_EQ(rt1.kernel().counters().forwarded, std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(rt0.kernel().counters().notifications,
            std::uint64_t{kWarmup + kMeasured});
  EXPECT_EQ(stashed, kMeasured) << "notifications did not take the stash path";
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxLfrAllocsPerRequest);
}

TEST_F(RequestAllocs, RetransmissionIsAnsweredWithTheLoggedCell) {
  // The reply log holds each reply as the {id, result} cell the client was
  // first sent; a retransmission gets that cell again, by handle, so
  // serving it costs what sending any cell costs and builds no reply map.
  deploy(FtmConfig::pbr());
  sim::Host& probe = sim.add_host("probe");
  std::vector<Payload> replies;
  probe.register_handler(msg::kReply, [&replies](const sim::Message& m) {
    replies.push_back(m.payload);
  });
  const Payload request = client_request(probe.id(), 5, kv_incr("ctr"));
  probe.send(h0.id(), msg::kRequest, request);
  sim.run_for(sim::kSecond);
  ASSERT_EQ(replies.size(), 1u);
  const auto& log =
      dynamic_cast<const ReplyLogComponent&>(rt0.composite().child("replyLog"));
  const Value* logged = log.lookup({probe.id().value(), 5});
  ASSERT_NE(logged, nullptr);

  std::size_t before = rcs::test::allocations();
  h0.send(probe.id(), msg::kReply, *logged);
  const std::size_t send_cost = rcs::test::allocations() - before;
  before = rcs::test::allocations();
  rt0.kernel().deliver_client(request);  // the retransmission
  const std::size_t serve_cost = rcs::test::allocations() - before;
  sim.run_for(sim::kSecond);

  EXPECT_EQ(rt0.kernel().counters().duplicates_served, 1u);
  EXPECT_EQ(serve_cost, send_cost) << "serving the duplicate built a reply";
  ASSERT_EQ(replies.size(), 3u);
  const Value& served = replies.back().value();
  EXPECT_EQ(&served.as_map(), &logged->as_map()) << "the log's very cell";
  EXPECT_EQ(served, replies.front().value());
  EXPECT_EQ(served.at("id").as_int(), 5);
}

TEST(ClientEnvelope, RetransmissionSendsTheSamePayloadCell) {
  // A server that never answers: the client retransmits, and every attempt
  // must carry the envelope built when the request was sent, not a copy.
  sim::Simulation sim(3);
  sim::Host& server = sim.add_host("server");
  sim::Host& client_host = sim.add_host("client");
  std::vector<const ClientRequest*> seen;
  server.register_handler(msg::kRequest, [&seen](const sim::Message& m) {
    seen.push_back(&m.payload.get<ClientRequest>());
  });
  Client client{client_host, {server.id()}};
  client.send(Value::map().set("op", "get").set("key", "k"));
  sim.run_for(2 * sim::kSecond);

  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(client.stats().retries, seen.size() - 1);
  for (const ClientRequest* request : seen) {
    EXPECT_EQ(request, seen.front()) << "a retransmission built a new envelope";
  }
  EXPECT_EQ(seen.front()->id, 1u);
  EXPECT_EQ(seen.front()->client,
            static_cast<std::int64_t>(client_host.id().value()));
}

}  // namespace
}  // namespace rcs::ftm::testing
