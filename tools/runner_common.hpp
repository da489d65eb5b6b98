// Plumbing shared by the runners (chaos_runner, load_runner, trace_dump): the
// wall-clock run summary, one flag table parser with strict numeric values,
// and the artifact file writer.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

/// One row of a runner's flag table: the flag's name and where its value
/// goes. A bool target is a switch; a string target takes the next token,
/// limited to `choices` when any are given; a numeric target (plain or
/// optional) parses the next token with parse_number against `min`.
struct Flag {
  const char* name;
  bool takes_value{true};
  /// Stores the value token (nullptr for a switch); false means it was bad
  /// and the message is already on stderr.
  std::function<bool(const char* text)> set;

  Flag(const char* flag, bool* target)
      : name(flag), takes_value(false), set([target](const char*) {
          return *target = true;
        }) {}

  Flag(const char* flag, std::string* target,
       std::vector<std::string_view> choices = {})
      : name(flag), set([flag, target, choices](const char* text) {
          if (!choices.empty() &&
              std::find(choices.begin(), choices.end(), text) ==
                  choices.end()) {
            std::fprintf(stderr, "bad %s value: %s\n", flag, text);
            return false;
          }
          *target = text;
          return true;
        }) {}

  template <typename T>
    requires std::is_arithmetic_v<T>
  Flag(const char* flag, T* target, std::type_identity_t<T> min)
      : name(flag), set([flag, target, min](const char* text) {
          return parse_number(flag, text, *target, min);
        }) {}

  template <typename T>
  Flag(const char* flag, std::optional<T>* target, std::type_identity_t<T> min)
      : name(flag), set([flag, target, min](const char* text) {
          T value{};
          if (!parse_number(flag, text, value, min)) return false;
          *target = value;
          return true;
        }) {}
};

/// Parse argv against `table`. `--help`/`-h` prints `usage` and exits 0.
/// An unknown flag or a missing value prints a message to stderr and
/// `usage` to stdout; a bad value prints only "bad FLAG value: V". Any
/// error returns false, and the runner exits 2.
inline bool parse_flags(int argc, char** argv, std::span<const Flag> table,
                        const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::puts(usage);
      std::exit(0);
    }
    const auto flag = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& f) { return arg == f.name; });
    if (flag == table.end()) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::puts(usage);
      return false;
    }
    if (flag->takes_value && i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::puts(usage);
      return false;
    }
    if (!flag->set(flag->takes_value ? argv[++i] : nullptr)) return false;
  }
  return true;
}

/// Write `data` to `path`, naming the artifact (`what`) on failure.
inline bool write_file(const std::string& path, const std::string& data,
                       const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(), what);
    return false;
  }
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write of %s to %s\n", what, path.c_str());
  return ok;
}

}  // namespace rcs::tools
