// Discrete-event scheduler: one binary min-heap.
//
// A single-threaded scheduler of timestamped closures. Events scheduled at
// the same instant run in scheduling order (stable FIFO tiebreak), which is
// what makes distributed interleavings reproducible. The execution order is
// a strict total order on (timestamp, seq), so every determinism gate
// (chaos replay, traced smoke, load ramp, bench rerun) stays byte-identical.
//
// Actions live in a free-list slab; a TimerId carries its slot index plus
// the slot's generation at scheduling time, so stale ids are rejected with
// one array access. The heap holds (at, seq, slot) entries, and each live
// slot records its heap position: cancel removes the entry at once and
// recycles the slot, so pending() counts only live events and no cancelled
// entry lingers in the queue. reserve() pre-sizes the slab and the heap, so
// a ramp of that depth performs no allocation in the measured window.
//
// Why a heap: the simulator's queues are shallow (the benchmark workloads
// peak at a few hundred pending events), where O(log n) is a handful of
// compares on one contiguous array (EXPERIMENTS.md, "Timer wheel
// (removed)").
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/sim/inplace_action.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {

class EventLoop {
 public:
  /// Small-buffer callable: hot-path closures run without heap traffic.
  using Action = InplaceAction;

  /// Observer invoked once per executed event, after the clock has advanced
  /// and before the action runs. Installed by the owning Simulation to feed
  /// the observability plane; a null hook costs one predictable branch.
  class Hook {
   public:
    virtual ~Hook() = default;
    virtual void on_event(Time now, std::size_t queue_depth) = 0;
  };

  /// Stub kept for benchmark/rcs_bench.cpp, which reads cascaded_entries
  /// for its sim.wheel_cascades_per_req metric. The heap never cascades, so
  /// the count is always 0. It goes when the benchmark moves to the obs
  /// registry (ROADMAP item 4).
  struct WheelStats {
    std::uint64_t cascaded_entries{0};
  };

  void set_hook(Hook* hook) { hook_ = hook; }

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` at absolute virtual time `at` (>= now). The label is
  /// only used in error messages at scheduling time; it is never stored.
  TimerId schedule_at(Time at, Action action, std::string_view label = {});
  /// Schedule `action` after `delay` (>= 0).
  TimerId schedule_after(Duration delay, Action action,
                         std::string_view label = {});

  /// Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(TimerId id);

  /// Run one event; returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty (or max_events processed; 0 = unlimited).
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 0);

  /// Run all events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(Time t);

  /// Run all events within the next `d` of virtual time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Pre-size the slot slab and the heap for a pending queue depth of `n`,
  /// so a schedule ramp of that depth stays allocation-free.
  void reserve(std::size_t n);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// High-water mark of pending() over the loop's lifetime (queue depth).
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] WheelStats wheel_stats() const { return {}; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    Action action;
    // Starts at 1 so no live handle ever equals the default TimerId{0};
    // bumped on every release, so stale ids never match.
    std::uint32_t generation{1};
    std::uint32_t link{kNil};  // heap position when live; free chain when not
  };
  struct Entry {
    Time at;
    std::uint64_t seq;  // FIFO tiebreak for equal timestamps
    std::uint32_t slot;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Store `entry` at heap position `pos` and record the position in its
  /// slot.
  void put(std::size_t pos, const Entry& entry);
  void sift_up(std::size_t pos, Entry entry);
  /// Remove the heap entry at `pos`, restoring the heap order.
  void remove_at(std::size_t pos);
  void release(std::uint32_t index);
  bool pop_and_run(Time limit);

  Time now_{0};
  Hook* hook_{nullptr};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  std::size_t peak_pending_{0};
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNil};
  /// Min-heap on (at, seq) of every pending event.
  std::vector<Entry> heap_;
};

}  // namespace rcs::sim
