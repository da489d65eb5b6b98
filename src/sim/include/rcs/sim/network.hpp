// Simulated message-passing network.
//
// Hosts exchange typed messages over point-to-point links with configurable
// latency, bandwidth and drop rate; links can be partitioned and reconfigured
// mid-run (bandwidth drops are one of the paper's R-parameter variations).
// All traffic is metered per host and per link so the monitoring engine can
// observe resource usage, and per-FTM bandwidth costs can be measured
// empirically (Table 1's R row).
//
// Hot-path layout: message types are interned ids (integer routing), payloads
// are refcounted immutable Values with a cached wire size, and the per-link
// state (params + stats + both directed transmitter-free times) lives in one
// entry of an open-addressed table keyed by a packed u64 — one probe per send
// where three std::map tree walks used to be. Per-host traffic is a dense
// vector indexed by host id. Entries are stored in a deque, so references
// handed out by link() stay valid forever (as they did with std::map).
//
// Every delivered copy is one event on the Simulation's event loop, and every
// random draw (loss, jitter, reordering, duplication) comes from its one rng
// stream, so delivery order is a function of the seed alone.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/common/intern.hpp"
#include "rcs/common/payload.hpp"
#include "rcs/common/value.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {

class Simulation;

/// One message in flight. `type` routes to a handler on the destination host
/// (e.g. "ftm.request", "ftm.replica", "adapt.package"); the payload is
/// shared by every scheduled copy of the message.
struct Message {
  HostId from;
  HostId to;
  MsgType type;
  Payload payload;
  /// Wire size: payload encoding plus a fixed header; filled in by send().
  std::size_t size_bytes{0};
};

struct LinkParams {
  Duration latency{1 * kMillisecond};
  /// Bytes per virtual second. Default 100 Mbit/s.
  double bandwidth_bps{12'500'000.0};
  double drop_rate{0.0};
  bool partitioned{false};
  /// Multiplicative jitter fraction applied to the transfer delay. Values
  /// above 1.0 are legal; the effective factor is clamped at zero so a
  /// large draw can null the transfer but never turn time backwards.
  double jitter{0.02};
  /// Probability that a delivered message arrives twice (the copy takes an
  /// independent extra delay drawn from [0, reorder_window)). Exercises the
  /// at-most-once reply log and the kernel's duplicate absorption.
  double duplicate_rate{0.0};
  /// Probability that a message is held back by an extra uniform delay in
  /// [0, reorder_window), letting later sends overtake it on the wire.
  double reorder_rate{0.0};
  /// Maximum extra delay applied by reordering and duplication.
  Duration reorder_window{10 * kMillisecond};
};

struct LinkStats {
  std::uint64_t messages{0};
  std::uint64_t bytes{0};
  std::uint64_t dropped{0};
  std::uint64_t duplicated{0};
  std::uint64_t reordered{0};
  /// Cumulative time messages spent queued behind earlier transmissions.
  Duration queueing{0};
};

struct HostTraffic {
  std::uint64_t bytes_sent{0};
  std::uint64_t bytes_received{0};
  std::uint64_t messages_sent{0};
  std::uint64_t messages_received{0};
};

class Network {
 public:
  explicit Network(Simulation& sim) : sim_(sim) {}

  static constexpr std::size_t kHeaderBytes = 64;

  /// Send a message; delivery is scheduled after latency + size/bandwidth.
  /// Messages from or to a crashed host are silently dropped (fail-silent).
  void send(Message message);

  /// Parameters of the (symmetric) link between two hosts. Creates the link
  /// with default parameters on first access; the reference stays valid for
  /// the lifetime of the Network.
  LinkParams& link(HostId a, HostId b);
  [[nodiscard]] const LinkParams& link(HostId a, HostId b) const;

  /// Default parameters applied to links created afterwards.
  LinkParams& default_link() { return default_link_; }

  void set_partitioned(HostId a, HostId b, bool partitioned);

  /// Cumulative stats of a link / a host. Pure observers: an untouched link
  /// or host reads as all-zero without materializing an entry. link_stats
  /// counts both directions and returns a snapshot by value — refetch after
  /// running events rather than holding it across a run.
  [[nodiscard]] LinkStats link_stats(HostId a, HostId b) const;
  [[nodiscard]] const HostTraffic& traffic(HostId h) const;
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Zero the cumulative per-link and per-host accounting (e.g. between
  /// measurement phases). Byte counters observed by the monitoring engine
  /// regress across this call; samplers must tolerate that. Link parameters
  /// and transmitter backlogs are untouched.
  void reset_stats();

 private:
  /// All per-link state: parameters, stats, and the per-direction time at
  /// which the transmitter becomes free again. Sending while the
  /// transmitter is busy queues behind earlier frames, so sustained overload
  /// shows up as growing latency (and the saturation probes measure
  /// something physical).
  struct LinkEntry {
    std::uint64_t key{0};
    LinkParams params;
    LinkStats stats;
    /// [0]: low-id -> high-id direction, [1]: the reverse.
    Time tx_free[2]{0, 0};
  };

  /// Undirected link key: (min(a,b) << 32) | max(a,b).
  static std::uint64_t key(HostId a, HostId b);
  /// Direction slot within an entry for a transmission a -> b.
  static std::size_t direction(HostId a, HostId b) {
    return a.value() <= b.value() ? 0 : 1;
  }

  LinkEntry& entry(std::uint64_t k);
  [[nodiscard]] const LinkEntry* find_entry(std::uint64_t k) const;
  void rehash(std::size_t buckets);
  HostTraffic& traffic_slot(HostId h);

  /// Receiver-side accounting + dispatch of one delivered copy.
  void deliver_copy(const Message& message);
  /// Schedule one delivered copy at `at`.
  void schedule_delivery(Time at, Message message, bool duplicate);

  Simulation& sim_;
  LinkParams default_link_{};
  /// Open-addressed index (linear probing, power-of-two size) over entries_.
  /// kNoEntry marks a free bucket; entries live in a deque so references
  /// survive rehashing.
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index_;
  std::deque<LinkEntry> entries_;
  /// Dense per-host accounting, indexed by host id.
  std::vector<HostTraffic> traffic_;
  std::uint64_t total_bytes_{0};
};

}  // namespace rcs::sim
