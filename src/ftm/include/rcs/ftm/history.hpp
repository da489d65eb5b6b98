// Request/reply history recording and invariant checking.
//
// Chaos campaigns need an oracle stronger than "the run did not crash". The
// HistoryRecorder taps the Client's observer hooks and keeps one record per
// request: what was asked, when, how many transmissions it took, and how it
// ended. After quiescence (all faults healed, client drained) the
// HistoryChecker replays the history against the safety and liveness
// invariants of a replicated counter workload:
//
//  - liveness: every request completed, none pending or given up;
//  - at-most-once: acked increments observe distinct counter values, and
//    the final counter never exceeds the number of increment attempts;
//  - no lost acks: the final counter is at least the largest acked value
//    and at least the number of acked increments;
//  - monotonicity: for non-overlapping requests (i completed before j was
//    sent) the observed counter never goes backwards — the real-time order
//    check that catches stale reads after failover;
//  - integrity: every successful result passes the caller-provided
//    validity hook (the app's executable-assertion checksum);
//  - kernel consistency: the protocol counters, when no crash wiped them,
//    account for at least the acked traffic.
//
// The checker is pure: it sees only records and an Inputs snapshot, so it
// runs identically during replay and shrinking.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rcs/common/value.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {
class Simulation;
}

namespace rcs::ftm {

struct HistoryRecord {
  std::uint64_t id{0};
  std::string op;    // "put" | "get" | "incr"
  std::string key;
  std::int64_t by{1};  // incr amount
  sim::Time sent{0};
  sim::Time completed{0};
  int attempts{0};
  enum class Outcome { kPending, kOk, kError, kTimeout };
  Outcome outcome{Outcome::kPending};
  Value result;  // the "result" map of an ok reply
};

[[nodiscard]] const char* to_string(HistoryRecord::Outcome outcome);

/// The counter value a record proves was observed server-side, if any:
/// an acked incr observes its new value, an acked get of `key` observes the
/// read value.
[[nodiscard]] std::optional<std::int64_t> observed_counter(
    const HistoryRecord& record, const std::string& key);

/// Installs Client::Observer hooks and accumulates the per-request records.
/// Keep it alive as long as the client issues traffic.
class HistoryRecorder {
 public:
  HistoryRecorder(Client& client, sim::Simulation& sim);

  /// One record per request sent, in id order.
  [[nodiscard]] const std::vector<HistoryRecord>& records() const {
    return records_;
  }
  /// Canonical text form of the history; byte-identical across replays.
  [[nodiscard]] std::string trace() const;

 private:
  /// The record of request `id`, or null if it was sent before recording.
  [[nodiscard]] HistoryRecord* find(std::uint64_t id);

  sim::Simulation& sim_;
  /// Dense: the client's ids run consecutively from the first one recorded.
  std::vector<HistoryRecord> records_;
};

struct InvariantReport {
  std::vector<std::string> checked;     // invariants evaluated
  std::vector<std::string> violations;  // human-readable failures
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

class HistoryChecker {
 public:
  struct Inputs {
    std::string counter_key{"ctr"};
    /// Authoritative post-quiescence read of the counter.
    std::int64_t final_counter{0};
    bool final_counter_valid{false};
    /// Client requests still pending after the drain window.
    std::size_t outstanding{0};
    /// Executable-assertion hook for ok results (e.g. checksum_ok).
    std::function<bool(const Value& result)> result_valid;
    /// Aggregated protocol counters of the surviving replicas. Crashes
    /// reset kernel counters, so the campaign only marks these valid for
    /// crash-free runs.
    bool kernel_counters_valid{false};
    std::uint64_t kernel_requests{0};
    std::uint64_t kernel_replies{0};  // incl. duplicates served
  };

  [[nodiscard]] static InvariantReport check(
      const std::vector<HistoryRecord>& records, const Inputs& inputs);
};

}  // namespace rcs::ftm
