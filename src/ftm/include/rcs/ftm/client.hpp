// Fault-tolerant client stub.
//
// Issues requests to the replicated server with retransmission and failover:
// a request that times out is resent (same id — the reply log's at-most-once
// semantics absorb duplicates) to the next replica in the list, so the client
// rides out master crashes and transitions transparently. Each request is
// one typed ClientRequest payload, built when it is sent; a retransmission
// sends the same payload again. Collects the end-to-end latency statistics
// the benchmarks report.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/common/payload.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/common/value.hpp"
#include "rcs/obs/metrics.hpp"
#include "rcs/obs/trace.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::ftm {

/// Client retransmission policy: capped exponential backoff with
/// deterministic jitter. Attempt k waits
///   min(backoff_max, timeout * backoff_factor^(k-1)) * (1 ± backoff_jitter)
/// before retransmitting; backoff_factor = 1 recovers the legacy fixed
/// timeout. The jitter draws from the simulation Rng, so runs stay
/// bit-reproducible while concurrent clients desynchronize their retries.
struct ClientOptions {
  sim::Duration timeout{400 * sim::kMillisecond};
  int max_attempts{12};
  double backoff_factor{2.0};
  sim::Duration backoff_max{2 * sim::kSecond};
  double backoff_jitter{0.1};
};

class Client {
 public:
  using Options = ClientOptions;

  struct Stats {
    /// Reservoir capacity: enough for stable tail quantiles, bounded no
    /// matter how many requests a fleet campaign pushes through the client.
    static constexpr std::size_t kReservoirCap = 512;

    std::uint64_t sent{0};
    std::uint64_t retries{0};
    std::uint64_t ok{0};
    std::uint64_t errors{0};    // explicit error replies
    std::uint64_t gave_up{0};   // exhausted attempts

    /// Latency summary (first-send to reply, ok only): log2 histogram with
    /// exact count/sum/min/max — O(1) memory however long the run.
    obs::HistogramCells latency;
    /// Most recent ok latency.
    sim::Duration last_latency{0};
    /// Uniform sample of at most kReservoirCap latencies (Algorithm R) for
    /// quantile estimation; exact while ok <= kReservoirCap.
    std::vector<sim::Duration> reservoir;

    [[nodiscard]] std::uint64_t latency_count() const { return latency.count; }
    /// Exact sum of all ok latencies (windowed means: diff two snapshots).
    [[nodiscard]] sim::Duration latency_total() const { return latency.sum; }
    [[nodiscard]] double mean_latency_ms() const;

    /// Fold `latency` into the summary; `rng` feeds the reservoir's
    /// replacement draw (callers pass a stream private to the client so the
    /// shared simulation stream is untouched).
    void record_latency(sim::Duration latency, Rng& rng);
  };

  /// Reply callback: the full reply map {"id", "result"} or {"id", "error"},
  /// or {"error": "timeout"} after giving up.
  using ReplyCallback = std::function<void(const Value& reply)>;

  /// Observability hooks for history checkers / chaos campaigns. Every field
  /// is optional; hooks fire at the client's virtual-time instants.
  struct Observer {
    /// A fresh request enters the pipeline (before the first transmission).
    std::function<void(std::uint64_t id, const Value& request)> on_send;
    /// A (re)transmission leaves for `target` (attempt counts from 1).
    std::function<void(std::uint64_t id, int attempt, HostId target)>
        on_transmit;
    /// The request completed: reply is {"id","result"}, {"id","error"} or
    /// {"error":"timeout"} after giving up.
    std::function<void(std::uint64_t id, const Value& reply)> on_complete;
  };

  Client(sim::Host& host, std::vector<HostId> replicas, Options options = {});

  /// Send one request; the callback (optional) fires exactly once.
  void send(Value request, ReplyCallback callback = {});

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Retransmission delay before attempt `attempt` (1-based), pre-jitter.
  [[nodiscard]] sim::Duration backoff_delay(int attempt) const;

 private:
  struct Pending {
    /// The request's ClientRequest payload, sent as is on every attempt.
    Payload envelope;
    ReplyCallback callback;
    sim::Time first_sent{0};
    int attempts{0};
    std::size_t target{0};
    TimerId timer{};
  };

  void transmit(std::uint64_t id);
  void on_reply(const Value& payload);
  void on_timeout(std::uint64_t id);

  /// Trace id for request `id`: host-unique and nonzero, carried through the
  /// protocol so server-side spans correlate with the client span.
  [[nodiscard]] std::uint64_t trace_id(std::uint64_t id) const {
    return ((static_cast<std::uint64_t>(host_.id().value()) + 1) << 32) | id;
  }
  void finish_span(std::uint64_t id, const Pending& pending);

  sim::Host& host_;
  std::vector<HostId> replicas_;
  Options options_;
  Observer observer_;
  std::uint64_t next_id_{1};
  std::size_t preferred_target_{0};
  std::map<std::uint64_t, Pending> pending_;
  Stats stats_;
  /// Private stream for the reservoir's replacement draws: sampling latencies
  /// must not perturb the shared simulation stream (backoff jitter, network
  /// noise), or enabling stats collection would change the run.
  Rng reservoir_rng_;

  // Observability: end-to-end request spans + latency histogram. The tracer
  // check is one byte load when tracing is off.
  obs::Tracer* tracer_{nullptr};
  obs::NameId request_span_name_{0};
  obs::NameId retry_span_name_{0};
  obs::Histogram latency_us_;
};

}  // namespace rcs::ftm
