// Metrics registry (observability plane, PR 3).
//
// One registry per simulation holds every named instrument: counters,
// gauges, and histograms with fixed log-scale (power-of-two) buckets.
// Registration interns the instrument name once and hands back a small
// handle bound to a stable cell; the hot path (increment / record) is a
// couple of machine words and never allocates or hashes. Registering the
// same name twice returns the same cell, so a redeployed component can
// rebind its handles and the export stays one series per name.
//
// Export is deterministic: instruments are kept name-sorted and all stored
// values are integral (gauges excepted), so two runs of the same seed emit
// byte-identical snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "rcs/common/value.hpp"

namespace rcs::obs {

/// Counter handle. Default-constructed it counts into a private local cell;
/// bind() retargets it onto a registry cell (carrying the local count over),
/// which is how per-component counter blocks become registry-backed without
/// the component ever owning the storage. Increments are one indirection.
class Counter {
 public:
  Counter() = default;

  Counter& operator++() {
    ++*target();
    return *this;
  }
  void add(std::uint64_t n) { *target() += n; }
  Counter& operator=(std::uint64_t v) {
    *target() = v;
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return *target(); }
  operator std::uint64_t() const { return *target(); }  // NOLINT: by design

  /// Retarget onto `cell`, seeding it with the counts gathered so far. A
  /// component binds at start-of-life, so this also gives fresh-instance
  /// semantics (the cell restarts from the handle's local count, usually 0).
  void bind(std::uint64_t* cell) {
    if (cell == nullptr || cell == cell_) return;
    *cell = *target();
    cell_ = cell;
  }

 private:
  friend class MetricsRegistry;
  /// Registry-made handle: views the cell as-is, no seeding.
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}

  [[nodiscard]] std::uint64_t* target() {
    return cell_ != nullptr ? cell_ : &local_;
  }
  [[nodiscard]] const std::uint64_t* target() const {
    return cell_ != nullptr ? cell_ : &local_;
  }

  std::uint64_t local_{0};
  std::uint64_t* cell_{nullptr};
};

/// Gauge handle: last-written value semantics.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) *cell_ = v;
  }
  [[nodiscard]] double value() const { return cell_ != nullptr ? *cell_ : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_{nullptr};
};

/// Histogram cells: fixed log2 buckets. Bucket i counts values v with
/// bit_width(v) == i, i.e. bucket 0 holds v <= 0, bucket i >= 1 holds
/// [2^(i-1), 2^i). 65 buckets cover the whole int64 range, so record()
/// is branch-free bit arithmetic — no allocation, no search.
struct HistogramCells {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count{0};
  std::int64_t sum{0};
  std::int64_t min{0};
  std::int64_t max{0};

  static std::size_t bucket_of(std::int64_t v);
  /// Inclusive upper bound of bucket i (for export): 0, 1, 3, 7, 15, ...
  static std::int64_t bucket_bound(std::size_t i);
  void record(std::int64_t v);
};

class Histogram {
 public:
  Histogram() = default;
  void record(std::int64_t v) {
    if (cells_ != nullptr) cells_->record(v);
  }
  [[nodiscard]] std::uint64_t count() const {
    return cells_ != nullptr ? cells_->count : 0;
  }
  [[nodiscard]] const HistogramCells* cells() const { return cells_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramCells* cells) : cells_(cells) {}
  HistogramCells* cells_{nullptr};
};

class MetricsRegistry {
 public:
  /// Registration interns `name` (allocating only on first sight) and
  /// returns a handle onto the named cell; same name, same cell.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Raw cell access for components that bind their own handle blocks.
  [[nodiscard]] std::uint64_t* counter_cell(std::string_view name);

  [[nodiscard]] std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Structured snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, buckets}}}.
  [[nodiscard]] Value snapshot() const;

  /// One JSON object per line, name-sorted (deterministic byte-for-byte for
  /// a deterministic run). `scope` is echoed into every line. Thin wrapper
  /// over obs::snapshot_json — the single serialization path.
  [[nodiscard]] std::string to_json_lines(std::string_view scope) const;

 private:
  friend std::string snapshot_json(const MetricsRegistry& registry,
                                   std::string_view scope);

  // Cells live in deques so handles stay valid across registrations.
  std::map<std::string, std::size_t, std::less<>> counter_index_;
  std::deque<std::uint64_t> counters_;
  std::map<std::string, std::size_t, std::less<>> gauge_index_;
  std::deque<double> gauges_;
  std::map<std::string, std::size_t, std::less<>> histogram_index_;
  std::deque<HistogramCells> histograms_;
};

/// JSON-lines snapshot of every instrument in `registry` (one object per
/// line, name-sorted, `scope` echoed into each). This is the one metrics
/// serialization path in the system: the --metrics-out files of
/// chaos_runner, load_runner and trace_dump all go through it.
[[nodiscard]] std::string snapshot_json(const MetricsRegistry& registry,
                                        std::string_view scope);

}  // namespace rcs::obs
