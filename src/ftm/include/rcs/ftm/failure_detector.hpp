// Heartbeat failure detector (common part).
//
// Each replica beats kHeartbeat messages to its peer every `interval_us` and
// suspects the peer when nothing has been heard for `timeout_us` (the paper's
// "dedicated entity (e.g., heartbeat, watchdog)" that detects the master
// crash and triggers recovery, §3.2.1). Suspicion is reported to the protocol
// kernel through the control reference, typed as its ProtocolControl face; a
// later heartbeat from a restarted peer reports recovery. The runtime hands
// each beacon to on_heartbeat. The timing
// properties are read on start and when set, and the beacon is built once
// per start, so a beat or a check allocates nothing.
#pragma once

#include <map>
#include <set>

#include "rcs/common/ids.hpp"
#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::ftm {

class FailureDetectorComponent : public comp::Component {
 public:
  static constexpr sim::Duration kDefaultInterval = 50 * sim::kMillisecond;
  static constexpr sim::Duration kDefaultTimeout = 200 * sim::kMillisecond;
  /// Grace for peers never heard from: group members boot at slightly
  /// different times, and a premature suspicion would self-elect a booting
  /// replica into a split role.
  static constexpr sim::Duration kDefaultStartupGrace = 2 * sim::kSecond;

  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  ~FailureDetectorComponent() override;

  /// A heartbeat beacon {from} arrived: the peer it names is alive. Throws
  /// ComponentError when the detector is not started, as a wire's face does.
  void on_heartbeat(const Value& beacon);

 protected:
  void on_start() override;
  void on_stop() override;
  void on_property_changed(const std::string& key) override;
  void* resolve_face(const comp::PortSpec& reference,
                     comp::Component& target) override {
    return typed_face(reference, target);
  }

 private:
  void beat();
  void check();
  /// Read interval_us, timeout_us and startup_grace_us.
  void read_timing();
  /// The protocol kernel, whose replica group is beaten to and watched,
  /// through the one reference slot.
  static constexpr std::size_t kControl = 0;
  [[nodiscard]] ProtocolControl& control() {
    return face<ProtocolControl>(kControl);
  }

  void cancel_timers();

  bool running_{false};
  sim::Time start_{0};
  sim::Duration interval_{kDefaultInterval};
  sim::Duration timeout_{kDefaultTimeout};
  sim::Duration grace_{kDefaultStartupGrace};
  /// {"from": this host's id}, shared by every beat.
  Payload beacon_;
  std::map<std::int64_t, sim::Time> last_heard_;
  std::set<std::int64_t> suspected_;
  // Pending self-rescheduling timers; cancelled on stop/destruction so a
  // replaced composite leaves no closures pointing at a dead component.
  TimerId beat_timer_{};
  TimerId check_timer_{};
};

}  // namespace rcs::ftm
