#include "rcs/sim/host.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::sim {

Host::Host(Simulation& sim, HostId id, std::string name)
    : sim_(sim), id_(id), name_(std::move(name)) {}

void Host::crash() {
  if (!alive_) return;
  log().info("host", name_, " CRASH at t=", sim_.now());
  // Listeners run while handlers are still in place so runtimes can inspect
  // their state; then everything volatile is dropped. Listeners themselves
  // are persistent: a runtime registers its teardown hook once and it fires
  // on every crash of the host.
  for (const auto& listener : crash_listeners_) listener();
  alive_ = false;
  ++epoch_;
  handlers_.clear();
  cpu_free_ = 0;  // the CPU backlog dies with the host
}

void Host::restart() {
  ensure(!alive_, "Host::restart: host is not crashed");
  log().info("host", name_, " RESTART at t=", sim_.now());
  alive_ = true;
  ++epoch_;
  faults_.transient_pending = 0;  // transient conditions do not survive reboot
  for (const auto& listener : restart_listeners_) listener();
}

void Host::register_handler(MsgType type, MessageHandler handler) {
  ensure(static_cast<bool>(handler), "Host::register_handler: empty handler");
  if (type.id() >= handlers_.size()) handlers_.resize(type.id() + 1);
  handlers_[type.id()] = std::move(handler);
}

void Host::unregister_handler(MsgType type) {
  if (type.id() < handlers_.size()) handlers_[type.id()] = nullptr;
}

void Host::deliver(const Message& message) {
  if (!alive_) return;
  const std::uint32_t id = message.type.id();
  if (id >= handlers_.size() || !handlers_[id]) {
    log().debug("host", name_, ": no handler for message type '", message.type,
                "' from ", message.from);
    return;
  }
  // Message handlers are the host's failure boundary: a message a component
  // cannot process (e.g. one from a peer in a different configuration during
  // a transition window) must not take the whole node down.
  try {
    handlers_[id](message);
  } catch (const Error& e) {
    log().error("host", name_, ": handler for '", message.type,
                "' failed: ", e.what());
  }
}

void Host::send(HostId to, MsgType type, Value payload) {
  send(to, type, Payload(std::move(payload)));
}

void Host::send(HostId to, MsgType type, Payload payload) {
  sim_.network().send(Message{id_, to, type, std::move(payload)});
}

TimerId Host::schedule_raw(Duration delay, EventLoop::Action action,
                           std::string_view label) {
  return sim_.loop().schedule_after(delay, std::move(action), label);
}

void Host::cancel(TimerId id) { sim_.loop().cancel(id); }

Duration Host::charge_compute(Duration reference_cost) {
  ensure(reference_cost >= 0, "Host::charge_compute: negative cost");
  const auto execution = static_cast<Duration>(
      static_cast<double>(reference_cost) / capacity_.cpu_speed);
  meter_.charge_cpu(execution);
  // Serialize on the CPU: start when the processor frees up, like frames on
  // a busy link. Queueing delays the computation but burns no CPU time.
  const Time now = sim_.now();
  const Time start = std::max(now, cpu_free_);
  const Duration queueing = start - now;
  cpu_free_ = start + execution;
  return queueing + execution;
}

}  // namespace rcs::sim
