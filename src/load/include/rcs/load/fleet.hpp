// ClientFleet: hundreds of ftm::Clients driving a ResilientSystem.
//
// The simulated counterpart of a load generator pointed at the paper's
// testbed. Each fleet member owns one host (a host dispatches one handler
// per message type, so clients cannot share one) and one ftm::Client with
// the full retransmission/failover machinery; an ArrivalProcess decides when
// its next request leaves. All stochastic choices draw from per-client
// private Rng streams derived from the fleet seed, so the offered schedule
// is bit-reproducible and independent of service-side randomness.
//
// The fleet aggregates per-class latency into the simulation's metrics
// registry ("load.latency_us.<op>"), keeps O(1)-memory totals on top of the
// clients' own bounded Stats, and offers a windowing facility (snapshot +
// bounded reservoir) that the sweep harness uses to measure one rate step
// at a time. With record_history on, every client gets a HistoryRecorder
// and merged_history() returns the deterministic union for the
// HistoryChecker — the same oracle the chaos campaigns use, now applied
// under sustained load.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rcs/core/system.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/ftm/history.hpp"
#include "rcs/load/arrival.hpp"
#include "rcs/obs/metrics.hpp"

namespace rcs::load {

struct FleetOptions {
  std::size_t clients{50};
  std::uint64_t seed{1};
  /// Retransmission policy applied to every fleet client.
  ftm::ClientOptions client{};
  /// Request mix (normalized internally).
  double incr_weight{0.70};
  double get_weight{0.20};
  double put_weight{0.10};
  std::string counter_key{"ctr"};
  /// Per-client request budget; 0 = unlimited (stop() ends the run).
  std::uint64_t max_requests_per_client{0};
  /// Attach a HistoryRecorder to every client (costs memory per request;
  /// scenario runs want it, capacity sweeps do not).
  bool record_history{false};
};

class ClientFleet {
 public:
  /// Aggregated counters across the fleet (sums of the clients' Stats).
  struct Totals {
    std::uint64_t sent{0};
    std::uint64_t ok{0};
    std::uint64_t errors{0};
    std::uint64_t gave_up{0};
    std::uint64_t retries{0};
    std::uint64_t latency_count{0};
    sim::Duration latency_total{0};
  };

  /// One measurement window: counter deltas since begin_window() plus a
  /// bounded latency reservoir for quantiles.
  struct Window {
    sim::Time started{0};
    Totals delta;
    /// Uniform sample (Algorithm R) of the window's ok latencies.
    std::vector<sim::Duration> latencies;
    /// Total ok latencies seen in the window (>= latencies.size()).
    std::uint64_t seen{0};

    [[nodiscard]] double mean_ms() const;
    /// Nearest-rank quantile of the reservoir, in ms.
    [[nodiscard]] double quantile_ms(double q) const;
  };

  static constexpr std::size_t kWindowReservoirCap = 4096;

  /// Builds the fleet hosts and clients against `system`'s replicas. The
  /// factory runs once per client. Does not start traffic.
  ClientFleet(core::ResilientSystem& system, FleetOptions options,
              const ProcessMaker& maker);

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Begin traffic: every client draws its first arrival gap.
  void start();
  /// Stop issuing new requests (outstanding ones keep retrying/draining).
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Retarget every client's arrival process (aggregate = clients * rate).
  void set_rate(double per_client_rps);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] Totals totals() const;
  /// Requests currently pending across the fleet.
  [[nodiscard]] std::size_t outstanding() const;
  [[nodiscard]] const ftm::Client& client(std::size_t index) const;

  /// Snapshot the totals and clear the window reservoir; the next window()
  /// reports deltas from this instant.
  void begin_window();
  [[nodiscard]] Window window() const;

  /// Union of every client's history records, sorted by (sent, client,
  /// id) — a deterministic multi-client history for the HistoryChecker.
  /// Empty unless options.record_history.
  [[nodiscard]] std::vector<ftm::HistoryRecord> merged_history() const;

 private:
  struct Member {
    sim::Host* host{nullptr};
    std::unique_ptr<ftm::Client> client;
    std::unique_ptr<ArrivalProcess> process;
    std::unique_ptr<ftm::HistoryRecorder> recorder;
    /// Private stream: arrival gaps + request-mix draws.
    Rng rng{0};
    std::uint64_t sent{0};
  };

  void arm(Member& member);
  void fire(Member& member);
  void complete(sim::Time sent_at, std::size_t op_class, const Value& reply);

  core::ResilientSystem& system_;
  FleetOptions options_;
  std::vector<std::unique_ptr<Member>> members_;
  bool running_{false};

  /// Per-class latency histograms in the sim's metrics registry.
  obs::Histogram latency_by_class_[3];

  /// Window accounting.
  Totals window_base_;
  sim::Time window_started_{0};
  std::vector<sim::Duration> window_reservoir_;
  std::uint64_t window_seen_{0};
  /// Private stream for the window reservoir's replacement draws.
  Rng window_rng_;
};

}  // namespace rcs::load
