#include "rcs/ftm/failure_detector.hpp"

#include "rcs/common/logging.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

comp::ComponentTypeInfo FailureDetectorComponent::type_info() {
  comp::ComponentTypeInfo info;
  info.type_name = kernel::kFailureDetector;
  info.description = "heartbeat failure detector (common part)";
  info.category = comp::TypeCategory::kKernel;
  info.services = {{"fd", iface::kFailureDetector}};
  info.references = {{"control", iface::kProtocolControl}};
  info.default_properties
      .set("interval_us", static_cast<std::int64_t>(kDefaultInterval))
      .set("timeout_us", static_cast<std::int64_t>(kDefaultTimeout))
      .set("startup_grace_us", static_cast<std::int64_t>(kDefaultStartupGrace));
  info.code_size = 26'000;
  info.source_file = "src/ftm/failure_detector.cpp";
  info.factory = [] { return std::make_unique<FailureDetectorComponent>(); };
  check_slots(info, {{kControl, "control"}});
  return info;
}

void FailureDetectorComponent::read_timing() {
  interval_ = property("interval_us").as_int();
  timeout_ = property("timeout_us").as_int();
  const Value grace = property("startup_grace_us");
  grace_ = grace.is_int() ? grace.as_int() : kDefaultStartupGrace;
}

void FailureDetectorComponent::on_property_changed(const std::string& key) {
  if (key == "interval_us" || key == "timeout_us" ||
      key == "startup_grace_us") {
    read_timing();
  }
}

void FailureDetectorComponent::on_start() {
  running_ = true;
  suspected_.clear();
  last_heard_.clear();
  read_timing();
  if (host() == nullptr) return;  // pure unit-test composite
  // All peers get the identical beacon: build it once, share the payload.
  beacon_ = Payload{Value::map().set(
      "from", static_cast<std::int64_t>(host()->id().value()))};
  start_ = host()->sim().now();
  beat();
  check();
}

FailureDetectorComponent::~FailureDetectorComponent() { cancel_timers(); }

void FailureDetectorComponent::cancel_timers() {
  if (host() == nullptr) return;
  host()->cancel(beat_timer_);
  host()->cancel(check_timer_);
}

void FailureDetectorComponent::on_stop() {
  running_ = false;
  cancel_timers();
}

void FailureDetectorComponent::beat() {
  if (!running_ || host() == nullptr) return;
  for (const auto peer : control().peers()) {
    if (peer < 0) continue;
    host()->send(HostId{static_cast<std::uint32_t>(peer)}, msg::kHeartbeat,
                 beacon_);
  }
  beat_timer_ = host()->schedule_after(interval_, [this] { beat(); }, "fd.beat");
}

void FailureDetectorComponent::check() {
  if (!running_ || host() == nullptr) return;
  const sim::Time now = host()->sim().now();
  const sim::Duration grace = grace_;
  for (const auto peer : control().peers()) {
    if (peer < 0 || suspected_.contains(peer)) continue;
    const auto it = last_heard_.find(peer);
    if (it == last_heard_.end()) {
      // Never heard from this peer: replicas of a group boot at slightly
      // different times (staggered deployments), so give them a startup
      // grace before declaring them dead.
      if (now - start_ <= grace) continue;
    }
    const sim::Time heard = it != last_heard_.end() ? it->second : start_ + grace;
    if (now - heard > timeout_) {
      suspected_.insert(peer);
      log().info("fd", host()->name(), ": peer h", peer,
                 " suspected (silent for ", now - heard, "us)");
      control().peer_suspected(peer);
    }
  }
  check_timer_ =
      host()->schedule_after(interval_, [this] { check(); }, "fd.check");
}

void FailureDetectorComponent::on_heartbeat(const Value& beacon) {
  ensure_started("fd");
  const auto from = beacon.get_or("from", Value(-1)).as_int();
  if (host() != nullptr) last_heard_[from] = host()->sim().now();
  if (suspected_.erase(from) > 0) {
    log().info("fd", host() ? host()->name() : "?", ": peer h", from,
               " heard again, recovered");
    control().peer_recovered(from);
  }
}

}  // namespace rcs::ftm
