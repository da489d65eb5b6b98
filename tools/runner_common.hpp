// Plumbing shared by chaos_runner, load_runner and gateway_runner: the
// wall-clock run summary and strict numeric flag parsing.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "rcs/sim/event_loop.hpp"

namespace rcs::tools {

/// Wall-clock throughput accounting, printed to stderr so stdout stays
/// byte-identical for the determinism cmp gates.
struct RunSummary {
  std::uint64_t events{0};
  std::size_t peak_queue_depth{0};
  sim::EventLoop::WheelStats wheel{};
  std::chrono::steady_clock::time_point start{std::chrono::steady_clock::now()};

  /// Fold in one run's scheduler accounting (any result carrying events,
  /// peak_queue_depth and wheel).
  template <typename Result>
  void add(const Result& result) {
    events += result.events;
    peak_queue_depth = std::max(peak_queue_depth, result.peak_queue_depth);
    wheel.cascaded_entries += result.wheel.cascaded_entries;
    wheel.bucket_sorts += result.wheel.bucket_sorts;
    wheel.overflow_migrated += result.wheel.overflow_migrated;
    wheel.overflow_peak =
        std::max(wheel.overflow_peak, result.wheel.overflow_peak);
  }

  void print() const {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double rate =
        seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    std::fprintf(stderr,
                 "summary: %llu events processed, %.0f events/sec, "
                 "peak queue depth %zu, wall %.2fs\n",
                 static_cast<unsigned long long>(events), rate,
                 peak_queue_depth, seconds);
    std::fprintf(stderr,
                 "wheel: %llu cascaded, %llu bucket sorts, "
                 "%llu overflow migrations, overflow peak %zu\n",
                 static_cast<unsigned long long>(wheel.cascaded_entries),
                 static_cast<unsigned long long>(wheel.bucket_sorts),
                 static_cast<unsigned long long>(wheel.overflow_migrated),
                 wheel.overflow_peak);
  }
};

/// Minimum for a flag that must be strictly positive.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// Parse all of `text` as the value of `flag` into `out`. Rejects an empty
/// or partly numeric token, a value out of T's range, a non-finite double
/// and a value below `min`, printing "bad FLAG value: TEXT" to stderr.
template <typename T>
bool parse_number(const char* flag, const char* text, T& out,
                  std::type_identity_t<T> min) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc{} && ptr == end && !(value < min);
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "bad %s value: %s\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

}  // namespace rcs::tools
