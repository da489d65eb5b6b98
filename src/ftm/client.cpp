#include "rcs/ftm/client.hpp"

#include <algorithm>

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

double Client::Stats::mean_latency_ms() const {
  if (latency.count == 0) return 0.0;
  return sim::to_ms(latency.sum) / static_cast<double>(latency.count);
}

void Client::Stats::record_latency(sim::Duration value, Rng& rng) {
  latency.record(value);
  last_latency = value;
  if (reservoir.size() < kReservoirCap) {
    reservoir.push_back(value);
    return;
  }
  // Algorithm R: the n-th observation replaces a random slot with
  // probability cap/n, keeping the reservoir a uniform sample of all n.
  const auto slot = static_cast<std::uint64_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(latency.count) - 1));
  if (slot < kReservoirCap) reservoir[static_cast<std::size_t>(slot)] = value;
}

Client::Client(sim::Host& host, std::vector<HostId> replicas, Options options)
    : host_(host),
      replicas_(std::move(replicas)),
      options_(options),
      // Deterministic per-client stream, decoupled from the simulation rng.
      reservoir_rng_(0xC2B2AE3D27D4EB4FULL ^
                     (static_cast<std::uint64_t>(host.id().value()) + 1)) {
  ensure(!replicas_.empty(), "Client: needs at least one replica");
  host_.register_handler(msg::kReply, [this](const sim::Message& message) {
    on_reply(message.payload);
  });
  tracer_ = &host_.sim().tracer();
  request_span_name_ = tracer_->intern("client.request");
  retry_span_name_ = tracer_->intern("client.retry");
  latency_us_ = host_.sim().metrics().histogram(
      strf("client.latency_us@", host_.name()));
}

void Client::finish_span(std::uint64_t id, const Pending& pending) {
  if (!tracer_->enabled()) return;
  tracer_->span(host_.id().value(), request_span_name_, trace_id(id),
                pending.first_sent, host_.sim().now(), pending.attempts);
}

void Client::send(Value request, ReplyCallback callback) {
  const auto id = next_id_++;
  Pending pending;
  // The one envelope of this request: every attempt sends this payload.
  pending.envelope = make_payload(ClientRequest{
      static_cast<std::int64_t>(host_.id().value()), id,
      tracer_->enabled() ? trace_id(id) : 0, std::move(request)});
  pending.callback = std::move(callback);
  pending.first_sent = host_.sim().now();
  pending.target = preferred_target_;
  if (observer_.on_send) {
    observer_.on_send(id, pending.envelope.get<ClientRequest>().request);
  }
  pending_.emplace(id, std::move(pending));
  ++stats_.sent;
  transmit(id);
}

sim::Duration Client::backoff_delay(int attempt) const {
  double delay = static_cast<double>(options_.timeout);
  for (int k = 1; k < attempt; ++k) {
    delay *= options_.backoff_factor;
    if (delay >= static_cast<double>(options_.backoff_max)) {
      return options_.backoff_max;
    }
  }
  return std::min<sim::Duration>(options_.backoff_max,
                                 static_cast<sim::Duration>(delay));
}

void Client::transmit(std::uint64_t id) {
  auto& pending = pending_.at(id);
  ++pending.attempts;
  const HostId target = replicas_[pending.target % replicas_.size()];
  if (observer_.on_transmit) {
    observer_.on_transmit(id, pending.attempts, target);
  }
  host_.send(target, msg::kRequest, pending.envelope);
  sim::Duration wait = backoff_delay(pending.attempts);
  if (options_.backoff_jitter > 0.0) {
    const double factor =
        1.0 + options_.backoff_jitter * host_.sim().rng().uniform(-1.0, 1.0);
    wait = static_cast<sim::Duration>(static_cast<double>(wait) * factor);
  }
  // The retransmission timer is the hottest client-side timer: assert its
  // capture stays small enough for the scheduler's inline action storage.
  auto on_timeout_action = [this, id] { on_timeout(id); };
  static_assert(sim::Host::timer_fits_inline<decltype(on_timeout_action)>,
                "client timeout timer must not allocate");
  pending.timer = host_.schedule_after(wait, std::move(on_timeout_action),
                                       "client.timeout");
}

void Client::on_timeout(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (pending.attempts >= options_.max_attempts) {
    ++stats_.gave_up;
    log().warn("client", host_.name(), ": giving up on request ", id, " after ",
               pending.attempts, " attempts");
    finish_span(id, pending);
    auto callback = std::move(pending.callback);
    pending_.erase(it);
    const Value reply = Value::map().set("error", "timeout");
    if (observer_.on_complete) observer_.on_complete(id, reply);
    if (callback) callback(reply);
    return;
  }
  // Failover: rotate to the next replica and retransmit the same id.
  ++stats_.retries;
  if (tracer_->enabled()) {
    tracer_->instant(host_.id().value(), retry_span_name_, trace_id(id),
                     host_.sim().now(), pending.attempts);
  }
  pending.target = (pending.target + 1) % replicas_.size();
  preferred_target_ = pending.target;
  transmit(id);
}

void Client::on_reply(const Value& payload) {
  const auto id = static_cast<std::uint64_t>(payload.at("id").as_int());
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late duplicate reply
  Pending& pending = it->second;
  host_.cancel(pending.timer);
  finish_span(id, pending);
  if (payload.has("error")) {
    ++stats_.errors;
  } else {
    ++stats_.ok;
    const sim::Duration latency = host_.sim().now() - pending.first_sent;
    stats_.record_latency(latency, reservoir_rng_);
    latency_us_.record(latency);
  }
  auto callback = std::move(pending.callback);
  pending_.erase(it);
  if (observer_.on_complete) observer_.on_complete(id, payload);
  if (callback) callback(payload);
}

}  // namespace rcs::ftm
