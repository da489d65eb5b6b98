#include "rcs/sim/fault_injector.hpp"

#include <algorithm>

#include "rcs/common/logging.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::sim {

void FaultInjector::crash_at(HostId host, Time t) {
  sim_.schedule_at(
      t, [this, host] { sim_.host(host).crash(); }, "fault.crash");
}

void FaultInjector::restart_at(HostId host, Time t) {
  sim_.schedule_at(
      t,
      [this, host] {
        Host& h = sim_.host(host);
        if (!h.alive()) h.restart();
      },
      "fault.restart");
}

void FaultInjector::transient_at(HostId host, Time t, int count) {
  sim_.schedule_at(
      t,
      [this, host, count] {
        Host& h = sim_.host(host);
        h.faults().transient_pending += count;
        log().debug("fault", h.name(), ": armed ", count, " transient fault(s)");
      },
      "fault.transient");
}

void FaultInjector::permanent_at(HostId host, Time t, bool on) {
  sim_.schedule_at(
      t,
      [this, host, on] {
        Host& h = sim_.host(host);
        h.faults().permanent = on;
        log().info("fault", h.name(), ": permanent value fault ",
                   on ? "ON" : "OFF");
      },
      "fault.permanent");
}

void FaultInjector::transient_campaign(HostId host, Time from, Time to,
                                       double rate_per_second) {
  // A zero, negative or NaN rate has no well-defined Poisson process; arm
  // nothing rather than divide by it (the old code span forever or threw the
  // whole campaign into one instant, depending on the rng draw).
  if (!(rate_per_second > 0.0)) return;
  Time t = from;
  for (;;) {
    const double gap_s = sim_.rng().exponential(rate_per_second);
    const double gap_ticks = gap_s * static_cast<double>(kSecond);
    // Overflow/degenerate-draw bounds: an infinite (or absurdly large) gap
    // ends the campaign; a zero gap still advances time by one tick so the
    // loop always terminates.
    if (!(gap_ticks < 9.2e18)) break;
    t += std::max<Duration>(1, static_cast<Duration>(gap_ticks));
    if (t >= to) break;
    transient_at(host, t);
  }
}

void FaultInjector::fsim_window(int point, const fsim::Indicator& indicator,
                                Time from, Time to) {
  const auto p = static_cast<fsim::Point>(point);
  sim_.schedule_at(
      from,
      [this, p, indicator] {
        sim_.fsim().arm(p, indicator);
        log().debug("fault", "fsim point ", fsim::to_string(p), " armed: ",
                    indicator.to_string());
      },
      "fault.fsim_arm");
  sim_.schedule_at(
      to, [this, p] { sim_.fsim().disarm(p); }, "fault.fsim_disarm");
}

void FaultInjector::partition_at(HostId a, HostId b, Time from, Time to) {
  sim_.schedule_at(
      from,
      [this, a, b] {
        sim_.network().set_partitioned(a, b, true);
        log().info("fault", "link ", a, "<->", b, ": partitioned");
      },
      "fault.partition");
  sim_.schedule_at(
      to,
      [this, a, b] {
        sim_.network().set_partitioned(a, b, false);
        log().info("fault", "link ", a, "<->", b, ": healed");
      },
      "fault.heal");
}

std::uint64_t FaultInjector::degrade_key(HostId a, HostId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (lo << 32) | hi;
}

void FaultInjector::degrade_link_at(HostId a, HostId b, Time from, Time to,
                                    LinkParams degraded) {
  sim_.schedule_at(
      from,
      [this, a, b, to, degraded] {
        LinkParams& link = sim_.network().link(a, b);
        DegradeState& st = degrades_[degrade_key(a, b)];
        // Reference-count overlapping windows: only the first one to open
        // snapshots the pristine parameters, so a later window can never
        // capture (and eventually "restore") another window's degradation.
        if (st.active++ == 0) st.original = link;
        const bool partitioned = link.partitioned;
        link = degraded;
        // Degradation never heals a concurrent partition window.
        link.partitioned = partitioned;
        log().info("fault", "link ", a, "<->", b, ": degraded (drop ",
                   degraded.drop_rate, ", dup ", degraded.duplicate_rate,
                   ", reorder ", degraded.reorder_rate, ")");
        sim_.schedule_at(
            to,
            [this, a, b] {
              const auto it = degrades_.find(degrade_key(a, b));
              if (it == degrades_.end() || it->second.active == 0) return;
              if (--it->second.active > 0) {
                // An overlapping window is still open; it owns the restore.
                log().info("fault", "link ", a, "<->", b,
                           ": degrade window closed (link still degraded)");
                return;
              }
              LinkParams& healed = sim_.network().link(a, b);
              const bool partitioned = healed.partitioned;
              healed = it->second.original;
              healed.partitioned = partitioned;
              degrades_.erase(it);
              log().info("fault", "link ", a, "<->", b, ": restored");
            },
            "fault.restore");
      },
      "fault.degrade");
}

namespace {
Value corrupt_leaf(const Value& value, Rng& rng) {
  switch (value.type()) {
    case Value::Type::kNull:
      return Value(std::int64_t{-1});
    case Value::Type::kBool:
      return Value(!value.as_bool());
    case Value::Type::kInt: {
      const auto bit = rng.uniform_int(0, 31);
      return Value(value.as_int() ^ (std::int64_t{1} << bit));
    }
    case Value::Type::kDouble: {
      // Flip a mantissa-region bit by perturbing the magnitude.
      const double v = value.as_double();
      const double delta = (v == 0.0 ? 1.0 : v) *
                           (rng.bernoulli(0.5) ? 1.0 : -1.0) *
                           (1.0 / static_cast<double>(1 << rng.uniform_int(1, 8)));
      return Value(v + delta);
    }
    case Value::Type::kString: {
      auto s = value.as_string();
      if (s.empty()) return Value(std::string("\x01"));
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
      s[i] = static_cast<char>(s[i] ^ (1 << rng.uniform_int(0, 6)));
      return Value(std::move(s));
    }
    case Value::Type::kBytes: {
      auto b = value.as_bytes();
      if (b.empty()) return Value(Bytes{0x01});
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
      b[i] = static_cast<std::uint8_t>(b[i] ^ (1 << rng.uniform_int(0, 7)));
      return Value(std::move(b));
    }
    default:
      return value;  // containers handled by caller
  }
}
}  // namespace

Value FaultInjector::corrupt(const Value& value, Rng& rng) {
  if (value.is_list()) {
    auto list = value.as_list();
    if (list.empty()) return Value(ValueList{Value(std::int64_t{-1})});
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1));
    list[i] = corrupt(list[i], rng);
    return Value(std::move(list));
  }
  if (value.is_map()) {
    auto map = value.as_map();
    if (map.empty()) return Value(ValueMap{{"corrupt", Value(true)}});
    auto it = map.begin();
    std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(map.size()) - 1));
    it->second = corrupt(it->second, rng);
    return Value(std::move(map));
  }
  return corrupt_leaf(value, rng);
}

Value FaultInjector::apply(Host& host, Value computed, Rng& rng) {
  auto& faults = host.faults();
  if (faults.transient_pending > 0) {
    --faults.transient_pending;
    ++faults.corruptions_applied;
    log().debug("fault", host.name(), ": transient corruption applied");
    return corrupt(computed, rng);
  }
  if (faults.permanent) {
    ++faults.corruptions_applied;
    return corrupt(computed, rng);
  }
  return computed;
}

}  // namespace rcs::sim
