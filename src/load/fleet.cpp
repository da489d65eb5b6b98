#include "rcs/load/fleet.hpp"

#include <algorithm>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::load {

namespace {

constexpr std::size_t kIncr = 0;
constexpr std::size_t kGet = 1;
constexpr std::size_t kPut = 2;

constexpr const char* kClassNames[3] = {"incr", "get", "put"};

}  // namespace

double ClientFleet::Window::mean_ms() const {
  if (delta.latency_count == 0) return 0.0;
  return sim::to_ms(delta.latency_total) /
         static_cast<double>(delta.latency_count);
}

double ClientFleet::Window::quantile_ms(double q) const {
  if (latencies.empty()) return 0.0;
  auto sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      clamped * static_cast<double>(sorted.size() - 1) + 0.5);
  return sim::to_ms(sorted[rank]);
}

ClientFleet::ClientFleet(core::ResilientSystem& system, FleetOptions options,
                         const ProcessMaker& maker)
    : system_(system),
      options_(std::move(options)),
      window_rng_(options_.seed ^ 0x94D049BB133111EBULL) {
  ensure(options_.clients > 0, "ClientFleet: needs at least one client");
  ensure(static_cast<bool>(maker), "ClientFleet: empty process maker");
  const double total_weight =
      options_.incr_weight + options_.get_weight + options_.put_weight;
  ensure(total_weight > 0.0, "ClientFleet: request mix has zero weight");

  std::vector<HostId> replica_ids;
  for (std::size_t i = 0; i < system_.replica_count(); ++i) {
    replica_ids.push_back(system_.replica(i).id());
  }

  auto& metrics = system_.sim().metrics();
  for (std::size_t c = 0; c < 3; ++c) {
    latency_by_class_[c] =
        metrics.histogram(strf("load.latency_us.", kClassNames[c]));
  }

  members_.reserve(options_.clients);
  for (std::size_t i = 0; i < options_.clients; ++i) {
    auto member = std::make_unique<Member>();
    member->host = &system_.sim().add_host(strf("load", i));
    member->client = std::make_unique<ftm::Client>(*member->host, replica_ids,
                                                   options_.client);
    member->process = maker(i);
    ensure(static_cast<bool>(member->process),
           "ClientFleet: process maker returned null");
    // SplitMix64-style spread of the fleet seed into per-client streams.
    member->rng.reseed(options_.seed ^
                       (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(i) + 1)));
    if (options_.record_history) {
      member->recorder = std::make_unique<ftm::HistoryRecorder>(
          *member->client, system_.sim());
    }
    members_.push_back(std::move(member));
  }
}

void ClientFleet::start() {
  ensure(!running_, "ClientFleet::start: already running");
  running_ = true;
  window_started_ = system_.sim().now();
  for (auto& member : members_) arm(*member);
}

void ClientFleet::stop() { running_ = false; }

void ClientFleet::set_rate(double per_client_rps) {
  for (auto& member : members_) member->process->set_rate(per_client_rps);
}

void ClientFleet::arm(Member& member) {
  if (!running_) return;
  if (options_.max_requests_per_client > 0 &&
      member.sent >= options_.max_requests_per_client) {
    return;
  }
  member.host->schedule_after(
      member.process->next_gap(member.rng), [this, &member] { fire(member); },
      "load.arrival");
}

void ClientFleet::fire(Member& member) {
  if (!running_) return;
  ++member.sent;

  const double total_weight =
      options_.incr_weight + options_.get_weight + options_.put_weight;
  const double pick = member.rng.uniform() * total_weight;
  std::size_t op_class = kPut;
  Value request;
  if (pick < options_.incr_weight) {
    op_class = kIncr;
    request = Value::map().set("op", "incr").set("key", options_.counter_key);
  } else if (pick < options_.incr_weight + options_.get_weight) {
    op_class = kGet;
    request = Value::map().set("op", "get").set("key", options_.counter_key);
  } else {
    request = Value::map()
                  .set("op", "put")
                  .set("key", "aux" + std::to_string(member.sent % 5))
                  .set("value", static_cast<std::int64_t>(member.sent));
  }

  const sim::Time sent_at = system_.sim().now();
  const bool closed = member.process->closed_loop();
  member.client->send(std::move(request),
                      [this, &member, sent_at, op_class,
                       closed](const Value& reply) {
                        complete(sent_at, op_class, reply);
                        if (closed) arm(member);
                      });
  if (!closed) arm(member);
}

void ClientFleet::complete(sim::Time sent_at, std::size_t op_class,
                           const Value& reply) {
  if (reply.has("error")) return;  // error/give-up: counted in client stats
  const sim::Duration latency = system_.sim().now() - sent_at;
  latency_by_class_[op_class].record(latency);
  ++window_seen_;
  if (window_reservoir_.size() < kWindowReservoirCap) {
    window_reservoir_.push_back(latency);
    return;
  }
  // Algorithm R over the window's ok completions.
  const auto slot = static_cast<std::uint64_t>(window_rng_.uniform_int(
      0, static_cast<std::int64_t>(window_seen_) - 1));
  if (slot < kWindowReservoirCap) {
    window_reservoir_[static_cast<std::size_t>(slot)] = latency;
  }
}

ClientFleet::Totals ClientFleet::totals() const {
  Totals totals;
  for (const auto& member : members_) {
    const auto& stats = member->client->stats();
    totals.sent += stats.sent;
    totals.ok += stats.ok;
    totals.errors += stats.errors;
    totals.gave_up += stats.gave_up;
    totals.retries += stats.retries;
    totals.latency_count += stats.latency_count();
    totals.latency_total += stats.latency_total();
  }
  return totals;
}

std::size_t ClientFleet::outstanding() const {
  std::size_t outstanding = 0;
  for (const auto& member : members_) {
    outstanding += member->client->outstanding();
  }
  return outstanding;
}

const ftm::Client& ClientFleet::client(std::size_t index) const {
  ensure(index < members_.size(), "ClientFleet::client: index out of range");
  return *members_[index]->client;
}

void ClientFleet::begin_window() {
  window_base_ = totals();
  window_started_ = system_.sim().now();
  window_reservoir_.clear();
  window_seen_ = 0;
}

ClientFleet::Window ClientFleet::window() const {
  Window window;
  window.started = window_started_;
  const Totals now = totals();
  window.delta.sent = now.sent - window_base_.sent;
  window.delta.ok = now.ok - window_base_.ok;
  window.delta.errors = now.errors - window_base_.errors;
  window.delta.gave_up = now.gave_up - window_base_.gave_up;
  window.delta.retries = now.retries - window_base_.retries;
  window.delta.latency_count = now.latency_count - window_base_.latency_count;
  window.delta.latency_total = now.latency_total - window_base_.latency_total;
  window.latencies = window_reservoir_;
  window.seen = window_seen_;
  return window;
}

std::vector<ftm::HistoryRecord> ClientFleet::merged_history() const {
  std::vector<std::pair<std::uint32_t, ftm::HistoryRecord>> tagged;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i]->recorder) continue;
    for (auto& record : members_[i]->recorder->records()) {
      tagged.emplace_back(static_cast<std::uint32_t>(i), std::move(record));
    }
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& a, const auto& b) {
              if (a.second.sent != b.second.sent) {
                return a.second.sent < b.second.sent;
              }
              if (a.first != b.first) return a.first < b.first;
              return a.second.id < b.second.id;
            });
  std::vector<ftm::HistoryRecord> merged;
  merged.reserve(tagged.size());
  for (auto& [client, record] : tagged) merged.push_back(std::move(record));
  return merged;
}

}  // namespace rcs::load
