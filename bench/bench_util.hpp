// Shared helpers for the reproduction benchmarks: stats, table printing,
// and environment-controlled run counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

namespace rcs::bench {

/// Number of seeded runs to average (paper: "averages over 100 test runs").
/// Override with RCS_RUNS=n for quicker smoke runs.
inline int runs(int fallback = 100) {
  if (const char* env = std::getenv("RCS_RUNS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

struct Stats {
  double mean{0};
  double stddev{0};
  double min{0};
  double max{0};
};

inline Stats stats_of(const std::vector<double>& samples) {
  Stats s;
  if (samples.empty()) return s;
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  double sq = 0;
  for (const double v : samples) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(samples.size()));
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

inline void rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void title(const std::string& text) {
  std::printf("\n");
  rule('=');
  std::printf("%s\n", text.c_str());
  rule('=');
}

/// Shape checks that failed so far in this process.
inline int& shape_failures() {
  static int failures = 0;
  return failures;
}

/// Print one "SHAPE CHECK: ..." line and record a failure. `fmt` is the
/// printf format of the text after the prefix, newline included, with "%V"
/// where the verdict (PASS or FAIL) goes; the remaining arguments fill its
/// other conversions.
inline bool shape_check(bool ok, const char* fmt, ...) {
  std::string line = "SHAPE CHECK: ";
  line += fmt;
  const auto verdict = line.find("%V");
  if (verdict != std::string::npos) line.replace(verdict, 2, ok ? "PASS" : "FAIL");
  std::va_list args;
  va_start(args, fmt);
  std::vprintf(line.c_str(), args);
  va_end(args);
  if (!ok) ++shape_failures();
  return ok;
}

/// A bench's exit status: non-zero once any shape check failed.
inline int shape_exit_code() { return shape_failures() == 0 ? 0 : 1; }

}  // namespace rcs::bench
