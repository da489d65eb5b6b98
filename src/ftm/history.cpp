#include "rcs/ftm/history.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "rcs/common/strf.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

const char* to_string(HistoryRecord::Outcome outcome) {
  switch (outcome) {
    case HistoryRecord::Outcome::kPending: return "pending";
    case HistoryRecord::Outcome::kOk: return "ok";
    case HistoryRecord::Outcome::kError: return "error";
    case HistoryRecord::Outcome::kTimeout: return "timeout";
  }
  return "?";
}

std::optional<std::int64_t> observed_counter(const HistoryRecord& record,
                                             const std::string& key) {
  if (record.outcome != HistoryRecord::Outcome::kOk) return std::nullopt;
  if (record.key != key || !record.result.is_map()) return std::nullopt;
  if (record.op == "incr" && record.result.has("value") &&
      record.result.at("value").is_int()) {
    return record.result.at("value").as_int();
  }
  if (record.op == "get" && record.result.has("found") &&
      record.result.at("found").as_bool() && record.result.has("value") &&
      record.result.at("value").is_int()) {
    return record.result.at("value").as_int();
  }
  return std::nullopt;
}

HistoryRecorder::HistoryRecorder(Client& client, sim::Simulation& sim)
    : sim_(sim) {
  Client::Observer observer;
  observer.on_send = [this](std::uint64_t id, const Value& request) {
    HistoryRecord record;
    record.id = id;
    record.sent = sim_.now();
    if (request.is_map()) {
      if (request.has("op")) record.op = request.at("op").as_string();
      if (request.has("key")) record.key = request.at("key").as_string();
      if (request.has("by")) record.by = request.at("by").as_int();
    }
    records_[id] = std::move(record);
  };
  observer.on_transmit = [this](std::uint64_t id, int attempt, HostId) {
    const auto it = records_.find(id);
    if (it != records_.end()) it->second.attempts = attempt;
  };
  observer.on_complete = [this](std::uint64_t id, const Value& reply) {
    const auto it = records_.find(id);
    if (it == records_.end()) return;
    HistoryRecord& record = it->second;
    record.completed = sim_.now();
    if (reply.is_map() && reply.has("error")) {
      const auto& error = reply.at("error");
      record.outcome = (error.is_string() && error.as_string() == "timeout")
                           ? HistoryRecord::Outcome::kTimeout
                           : HistoryRecord::Outcome::kError;
    } else {
      record.outcome = HistoryRecord::Outcome::kOk;
      if (reply.is_map() && reply.has("result")) {
        record.result = reply.at("result");
      }
    }
  };
  client.set_observer(std::move(observer));
}

std::vector<HistoryRecord> HistoryRecorder::records() const {
  std::vector<HistoryRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(record);
  return out;
}

std::string HistoryRecorder::trace() const {
  std::string out =
      "history records=" + std::to_string(records_.size()) + "\n";
  for (const auto& [id, r] : records_) {
    out += strf("  [", id, "] op=", r.op, " key=", r.key, " sent=", r.sent,
                " done=", r.completed, " attempts=", r.attempts,
                " outcome=", to_string(r.outcome));
    if (r.outcome == HistoryRecord::Outcome::kOk && r.result.is_map()) {
      if (r.result.has("value") && r.result.at("value").is_int()) {
        out += strf(" value=", r.result.at("value").as_int());
      } else if (r.result.has("found")) {
        out += strf(" found=", r.result.at("found").as_bool() ? 1 : 0);
      } else if (r.result.has("ok")) {
        out += " ok";
      }
    }
    out += "\n";
  }
  return out;
}

std::string InvariantReport::to_string() const {
  if (ok()) {
    return strf("PASS (", checked.size(), " invariants)");
  }
  std::string out = strf("FAIL (", violations.size(), " violation(s)):\n");
  for (const auto& v : violations) out += "  - " + v + "\n";
  return out;
}

InvariantReport HistoryChecker::check(
    const std::vector<HistoryRecord>& records, const Inputs& inputs) {
  InvariantReport report;

  // --- Liveness: everything the client asked was eventually answered.
  report.checked.push_back("liveness");
  if (inputs.outstanding > 0) {
    report.violations.push_back(
        strf(inputs.outstanding, " request(s) still outstanding after drain"));
  }
  for (const auto& r : records) {
    switch (r.outcome) {
      case HistoryRecord::Outcome::kPending:
        report.violations.push_back(
            strf("request ", r.id, " (", r.op, ") never completed"));
        break;
      case HistoryRecord::Outcome::kTimeout:
        report.violations.push_back(
            strf("request ", r.id, " (", r.op, ") gave up after ", r.attempts,
                 " attempts"));
        break;
      case HistoryRecord::Outcome::kError:
        report.violations.push_back(
            strf("request ", r.id, " (", r.op, ") got an error reply"));
        break;
      case HistoryRecord::Outcome::kOk:
        break;
    }
  }

  // --- Counter accounting on the designated key.
  std::vector<std::int64_t> acked_incr_values;
  std::int64_t incr_attempted_total = 0;  // sum of `by` over all incr sends
  std::int64_t acked_incr_count = 0;
  std::size_t acked_total = 0;
  for (const auto& r : records) {
    if (r.outcome == HistoryRecord::Outcome::kOk) ++acked_total;
    if (r.op != "incr" || r.key != inputs.counter_key) continue;
    incr_attempted_total += r.by;
    if (r.outcome != HistoryRecord::Outcome::kOk) continue;
    ++acked_incr_count;
    if (const auto v = observed_counter(r, inputs.counter_key)) {
      acked_incr_values.push_back(*v);
    }
  }

  report.checked.push_back("exactly-once");
  {
    auto sorted = acked_incr_values;
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      report.violations.push_back(
          strf("two acked increments observed the same counter value ", *dup,
               " — a write executed twice or an ack was replayed"));
    }
  }

  if (inputs.final_counter_valid) {
    report.checked.push_back("no-lost-acks");
    if (inputs.final_counter < acked_incr_count) {
      report.violations.push_back(
          strf("final counter ", inputs.final_counter, " < ", acked_incr_count,
               " acked increments — an acked write was lost"));
    }
    if (!acked_incr_values.empty()) {
      const auto max_acked =
          *std::max_element(acked_incr_values.begin(), acked_incr_values.end());
      if (inputs.final_counter < max_acked) {
        report.violations.push_back(
            strf("final counter ", inputs.final_counter,
                 " < largest acked value ", max_acked,
                 " — state rolled back past an ack"));
      }
      const auto min_acked =
          *std::min_element(acked_incr_values.begin(), acked_incr_values.end());
      if (min_acked < 1) {
        report.violations.push_back(
            strf("acked increment observed non-positive value ", min_acked));
      }
    }
    report.checked.push_back("no-double-execution");
    if (inputs.final_counter > incr_attempted_total) {
      report.violations.push_back(
          strf("final counter ", inputs.final_counter, " > ",
               incr_attempted_total,
               " increments ever attempted — a request executed twice"));
    }
  }

  // --- Monotonicity across non-overlapping requests: if request i
  // completed before request j was sent, j must not observe an older
  // counter (real-time order is execution order for a linearizable
  // counter).
  report.checked.push_back("monotonicity");
  struct Observation {
    sim::Time sent;
    sim::Time completed;
    std::int64_t value;
    std::uint64_t id;
  };
  std::vector<Observation> observations;
  for (const auto& r : records) {
    if (const auto v = observed_counter(r, inputs.counter_key)) {
      observations.push_back({r.sent, r.completed, *v, r.id});
    }
  }
  // `earlier` has a violation iff some observation sent at or after its
  // completion saw a smaller value: with the observations sorted by `sent`,
  // that is one binary search into a suffix minimum of `value`. Only an
  // offending `earlier` runs the pairwise scan, which keeps the violation
  // list's text, order and count.
  std::vector<std::pair<sim::Time, std::int64_t>> by_sent;
  by_sent.reserve(observations.size());
  for (const auto& o : observations) by_sent.emplace_back(o.sent, o.value);
  std::sort(by_sent.begin(), by_sent.end());
  std::vector<std::int64_t> suffix_min(by_sent.size() + 1,
                                       std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = by_sent.size(); i-- > 0;) {
    suffix_min[i] = std::min(suffix_min[i + 1], by_sent[i].second);
  }
  for (const auto& earlier : observations) {
    const auto first_later = std::lower_bound(
        by_sent.begin(), by_sent.end(), earlier.completed,
        [](const auto& o, sim::Time t) { return o.first < t; });
    if (suffix_min[static_cast<std::size_t>(first_later - by_sent.begin())] >=
        earlier.value) {
      continue;
    }
    for (const auto& later : observations) {
      if (earlier.completed <= later.sent && earlier.value > later.value) {
        report.violations.push_back(
            strf("counter went backwards: request ", earlier.id, " observed ",
                 earlier.value, ", then request ", later.id, " observed ",
                 later.value));
      }
    }
  }

  // --- Integrity: executable assertion over every successful result.
  if (inputs.result_valid) {
    report.checked.push_back("integrity");
    for (const auto& r : records) {
      if (r.outcome != HistoryRecord::Outcome::kOk) continue;
      if (!r.result.is_map() || r.result.as_map().empty()) continue;
      if (!inputs.result_valid(r.result)) {
        report.violations.push_back(
            strf("request ", r.id, " (", r.op,
                 ") returned a result that fails the validity assertion"));
      }
    }
  }

  // --- Kernel counters account for the observed traffic (crash-free runs
  // only: a restart zeroes the counters).
  if (inputs.kernel_counters_valid) {
    report.checked.push_back("kernel-consistency");
    if (inputs.kernel_requests < acked_total) {
      report.violations.push_back(
          strf("kernel saw ", inputs.kernel_requests, " requests but ",
               acked_total, " were acked"));
    }
    if (inputs.kernel_replies < acked_total) {
      report.violations.push_back(
          strf("kernel sent ", inputs.kernel_replies, " replies but ",
               acked_total, " acks were observed"));
    }
  }

  return report;
}

}  // namespace rcs::ftm
