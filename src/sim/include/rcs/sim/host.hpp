// Simulated host.
//
// A host is one of the paper's replica machines: it receives messages
// (dispatched by type to registered handlers), owns volatile state that is
// lost on crash, stable storage that survives crashes, resource meters, and a
// hardware fault state driven by the fault injector (transient bit flips /
// permanent value faults, the paper's FT variations).
//
// Crash semantics: a crashed host neither receives messages nor fires its
// timers. Crash/restart bump an epoch counter; timers and callbacks scheduled
// through Host::schedule_after are bound to the epoch they were created in,
// so stale closures from before a crash never execute after a restart
// (fail-silent, as the paper assumes for its duplex protocols).
//
// Dispatch is by interned type id into a dense handler table, and timers wrap
// the caller's closure directly in the scheduler's small-buffer action, so a
// steady-state request hop performs no handler-map or closure allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/sim/event_loop.hpp"
#include "rcs/sim/network.hpp"
#include "rcs/sim/resources.hpp"
#include "rcs/sim/stable_storage.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {

class Simulation;

/// Hardware fault condition of a host, set by the FaultInjector and consumed
/// by application compute wrappers (a pending transient fault corrupts the
/// next computation once; a permanent fault corrupts every computation).
struct HardwareFaultState {
  int transient_pending{0};
  bool permanent{false};
  /// Count of corruptions actually applied (for experiment reporting).
  std::uint64_t corruptions_applied{0};
};

class Host {
 public:
  using MessageHandler = std::function<void(const Message&)>;
  using Listener = std::function<void()>;

  /// True when the epoch-bound wrapper around F still fits the scheduler's
  /// inline action buffer (wrapper = Host* + epoch + F). Hot callers
  /// static_assert this so a growing capture fails the build instead of
  /// silently reintroducing a per-timer allocation.
  template <typename F>
  static constexpr bool timer_fits_inline =
      sizeof(F) + 2 * sizeof(std::uint64_t) <= EventLoop::Action::kCapacity &&
      alignof(F) <= EventLoop::Action::kAlignment &&
      std::is_nothrow_move_constructible_v<F>;

  Host(Simulation& sim, HostId id, std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulation& sim() { return sim_; }

  // --- Liveness ---------------------------------------------------------
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Crash the host: volatile handlers are dropped, epoch-bound timers die,
  /// crash listeners run (so runtimes can tear down their component trees).
  void crash();

  /// Restart after a crash: new epoch, restart listeners run (so runtimes
  /// can redeploy from stable storage).
  void restart();

  /// Invoked on crash (before handlers are cleared) / after restart.
  void on_crash(Listener listener) { crash_listeners_.push_back(std::move(listener)); }
  void on_restart(Listener listener) { restart_listeners_.push_back(std::move(listener)); }

  // --- Messaging ----------------------------------------------------------
  /// Register the handler for a message type. Handlers are volatile: they are
  /// cleared on crash and must be re-registered on restart.
  void register_handler(MsgType type, MessageHandler handler);
  void unregister_handler(MsgType type);

  /// Deliver a message (called by the Network). Dropped if crashed or no
  /// handler is registered for the type.
  void deliver(const Message& message);

  /// Convenience: send via the simulation's network. The Payload overload
  /// forwards an already-shared payload (fan-out, echo) without re-encoding.
  void send(HostId to, MsgType type, Value payload);
  void send(HostId to, MsgType type, Payload payload);

  // --- Timers -------------------------------------------------------------
  /// Schedule an action bound to the current epoch: it is skipped if the host
  /// crashes (or restarts) before it fires. The wrapper is built around F
  /// itself (not a type-erased intermediary) so small captures stay inline.
  template <typename F>
  TimerId schedule_after(Duration delay, F&& action,
                         std::string_view label = {}) {
    return schedule_raw(
        delay,
        [this, epoch = epoch_, action = std::forward<F>(action)]() mutable {
          if (alive_ && epoch_ == epoch) action();
        },
        label);
  }
  void cancel(TimerId id);

  // --- State, resources, faults -------------------------------------------
  StableStorage& stable() { return stable_; }
  ResourceMeter& meter() { return meter_; }
  [[nodiscard]] const ResourceMeter& meter() const { return meter_; }
  HostCapacity& capacity() { return capacity_; }
  [[nodiscard]] const HostCapacity& capacity() const { return capacity_; }
  HardwareFaultState& faults() { return faults_; }

  /// Charge CPU for a computation of `reference_cost` on the reference host.
  /// The CPU is a serial resource: a computation issued while an earlier one
  /// is still executing queues behind it, exactly like frames on a busy
  /// network link. Returns the delay until the computation completes —
  /// queueing plus the execution time scaled by cpu_speed — so sustained
  /// overload shows up as growing processing latency and the capacity knee
  /// of a host moves when cpu_speed is cut. Only the execution time is
  /// metered as CPU used.
  Duration charge_compute(Duration reference_cost);

 private:
  /// Non-template backend for schedule_after (Simulation is incomplete here).
  TimerId schedule_raw(Duration delay, EventLoop::Action action,
                       std::string_view label);

  Simulation& sim_;
  HostId id_;
  std::string name_;
  bool alive_{true};
  std::uint64_t epoch_{0};
  /// Dense dispatch table indexed by interned message-type id.
  std::vector<MessageHandler> handlers_;
  std::vector<Listener> crash_listeners_;
  std::vector<Listener> restart_listeners_;
  StableStorage stable_;
  ResourceMeter meter_;
  HostCapacity capacity_;
  HardwareFaultState faults_;
  /// CPU serialization: when the processor frees up (cf. Network::tx_free_).
  Time cpu_free_{0};
};

}  // namespace rcs::sim
