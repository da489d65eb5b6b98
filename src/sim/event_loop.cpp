#include "rcs/sim/event_loop.hpp"

#include <limits>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::sim {

TimerId EventLoop::schedule_at(Time at, Action action, std::string_view label) {
  if (at < now_) {
    throw SimError(strf("EventLoop::schedule_at: t=", at, " is in the past (now=",
                        now_, ", label='", label, "')"));
  }
  ensure(static_cast<bool>(action), "EventLoop::schedule_at: empty action");

  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = slots_[index].link;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[index].action = std::move(action);
  heap_.push_back(Entry{at, next_seq_++, index});
  sift_up(heap_.size() - 1, heap_.back());
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  return TimerId{(static_cast<std::uint64_t>(slots_[index].generation) << 32) |
                 index};
}

TimerId EventLoop::schedule_after(Duration delay, Action action,
                                  std::string_view label) {
  if (delay < 0) {
    throw SimError(strf("EventLoop::schedule_after: negative delay ", delay,
                        " (label='", label, "')"));
  }
  return schedule_at(now_ + delay, std::move(action), label);
}

void EventLoop::cancel(TimerId id) {
  const auto index = static_cast<std::uint32_t>(id.value() & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id.value() >> 32);
  // A free slot's generation is already past every id issued for it, so a
  // matching generation means the slot is live and `link` is its position.
  if (index >= slots_.size() || slots_[index].generation != generation) return;
  remove_at(slots_[index].link);
  release(index);
}

void EventLoop::put(std::size_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].link = static_cast<std::uint32_t>(pos);
}

void EventLoop::sift_up(std::size_t pos, Entry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, entry);
}

void EventLoop::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (pos == size) return;
  // Bottom-up: walk the hole down to a leaf along the earlier children (one
  // compare per level), then sift the old last entry up from there. It is
  // usually a late event, so that rarely moves, and the same walk serves a
  // pop at the root and a cancel anywhere.
  for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    put(pos, heap_[child]);
    pos = child;
  }
  sift_up(pos, last);
}

void EventLoop::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.action = nullptr;
  ++slot.generation;  // invalidates any id still referencing the slot
  slot.link = free_head_;
  free_head_ = index;
}

bool EventLoop::pop_and_run(Time limit) {
  if (heap_.empty() || heap_.front().at > limit) return false;
  const Entry top = heap_.front();
  remove_at(0);
  now_ = top.at;
  // Move the action out before running: the action may schedule/cancel.
  Action action = std::move(slots_[top.slot].action);
  release(top.slot);
  ++processed_;
  if (hook_ != nullptr) hook_->on_event(now_, heap_.size());
  action();
  return true;
}

bool EventLoop::step() {
  return pop_and_run(std::numeric_limits<Time>::max());
}

std::size_t EventLoop::run(std::size_t max_events) {
  constexpr Time kNoLimit = std::numeric_limits<Time>::max();
  std::size_t n = 0;
  while ((max_events == 0 || n < max_events) && pop_and_run(kNoLimit)) ++n;
  return n;
}

std::size_t EventLoop::run_until(Time t) {
  ensure(t >= now_, "EventLoop::run_until: target time is in the past");
  std::size_t n = 0;
  while (pop_and_run(t)) ++n;
  now_ = t;
  return n;
}

void EventLoop::reserve(std::size_t n) {
  slots_.reserve(n);
  heap_.reserve(n);
}

}  // namespace rcs::sim
