// Arrival processes: when does the next request leave a client?
//
// The workload side of the paper's experimental loop. Capacity questions
// ("where is the knee?", "does the monitoring fire under real traffic?")
// need *offered load* as a first-class, controllable input, not a hardcoded
// request gap. An ArrivalProcess turns a target rate into a deterministic,
// seed-reproducible sequence of inter-arrival gaps:
//
//  - open loop (Poisson): requests arrive on an exponential clock whether or
//    not earlier ones completed — the honest way to measure saturation,
//    because a closed loop self-throttles and hides the knee;
//  - closed loop (think time): the next request waits for the previous
//    reply plus a think gap — models interactive clients;
//  - bursty on/off: Poisson bursts alternating with silence — stresses the
//    monitoring hysteresis and queue drain.
//
// Every gap draws from an Rng the caller owns (one private stream per fleet
// client), so the offered schedule never shifts when service-side randomness
// (backoff jitter, network noise) changes.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "rcs/common/rng.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::load {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Closed-loop processes gate the next arrival on the previous completion;
  /// open-loop processes keep firing regardless of outstanding requests.
  [[nodiscard]] virtual bool closed_loop() const { return false; }

  /// Gap between the previous arrival (or completion, when closed_loop())
  /// and the next request.
  [[nodiscard]] virtual sim::Duration next_gap(Rng& rng) = 0;

  /// Retarget the process to a new mean rate (requests per virtual second,
  /// per client). The sweep harness ramps offered load through this.
  virtual void set_rate(double per_client_rps) = 0;
};

/// Open-loop Poisson arrivals at a fixed mean rate.
class OpenPoisson final : public ArrivalProcess {
 public:
  explicit OpenPoisson(double per_client_rps);

  [[nodiscard]] sim::Duration next_gap(Rng& rng) override;
  void set_rate(double per_client_rps) override { rate_ = per_client_rps; }

 private:
  double rate_;
};

/// Closed loop: wait for the reply, think, send the next request. The think
/// time is exponential with mean 1/rate, so `rate` is the per-client request
/// rate an unloaded system would see.
class ClosedLoopThink final : public ArrivalProcess {
 public:
  explicit ClosedLoopThink(double per_client_rps);

  [[nodiscard]] bool closed_loop() const override { return true; }
  [[nodiscard]] sim::Duration next_gap(Rng& rng) override;
  void set_rate(double per_client_rps) override { rate_ = per_client_rps; }

 private:
  double rate_;
};

/// Markov-modulated on/off: exponential bursts of Poisson traffic at
/// `burst_factor` times the mean rate, separated by exponential silences
/// sized so the long-run average stays at the configured rate.
class BurstyOnOff final : public ArrivalProcess {
 public:
  BurstyOnOff(double per_client_rps, double burst_factor = 4.0,
              sim::Duration mean_on = 2 * sim::kSecond);

  [[nodiscard]] sim::Duration next_gap(Rng& rng) override;
  void set_rate(double per_client_rps) override { rate_ = per_client_rps; }

 private:
  double rate_;
  double burst_factor_;
  sim::Duration mean_on_;
  /// Virtual time left in the current burst; <= 0 means a fresh burst (and
  /// its leading silence) must be drawn before the next arrival.
  sim::Duration on_remaining_{0};
};

/// Factory handed to the fleet: builds client `index`'s process. The factory
/// runs once per client at fleet start.
using ProcessMaker =
    std::function<std::unique_ptr<ArrivalProcess>(std::size_t index)>;

/// Named factories for the CLI: "open" | "closed" | "bursty".
[[nodiscard]] ProcessMaker make_process(const std::string& kind,
                                        double per_client_rps);

}  // namespace rcs::load
