// rcs_bench: full-stack benchmark of the resilient computing stack.
//
// Drives the real system only through its public APIs (ResilientSystem,
// ClientFleet, run_campaign, HistoryChecker, Simulation, MetricsRegistry),
// times every call it makes into a layer with steady_clock, and reads each
// layer's counters from its accessors. Four workloads, each stressing a
// different part of the request path (README.md explains the choice):
//
//   steady_delta  PBR, delta checkpoints, 40-client open-loop fleet
//   steady_full   the same with full-state checkpoints (codec-heavy)
//   adapt_cycle   a transition every 5 virtual s under load (rewiring)
//   chaos_mix     700 chaos campaigns (failure paths, per-campaign deploys)
//
// Every rep rebuilds the system from the seed, so all reps of one invocation
// simulate exactly the same thing: their digests must agree, and host-time
// metrics are medians over reps. End-to-end metrics come from untraced reps;
// --trace FILE interleaves traced reps, whose spans go to FILE as Chrome
// traceEvents JSON.
//
//   rcs_bench [--workload NAME|all] [--seed N] [--reps N | --seconds S]
//             [--quick] [--trace FILE]
//
// Exit status is 1 when a check fails: reps disagree, a fail_ratio or
// violations value differs from its baseline, or an invariant breaks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rcs/app/app_base.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/core/chaos_campaign.hpp"
#include "rcs/core/system.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/history.hpp"
#include "rcs/load/arrival.hpp"
#include "rcs/load/fleet.hpp"

// ---------------------------------------------------------------------------
// Allocation counting, as in bench_message_plane. The harness runs the whole
// stack on one thread (serial simulation, no pools), so plain counters
// suffice; an atomic read-modify-write per allocation would add measurable
// cost to a request that allocates hundreds of times.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++g_allocs;
  g_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  g_alloc_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace rcs;  // NOLINT
using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_origin)
      .count();
}

// ---------------------------------------------------------------------------
// Harness-side spans: one per call into a layer, kept in memory, written as
// Chrome traceEvents JSON at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    const char* workload;
    int rep;
  };

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

   private:
    SpanLog* log_;
    int index_;
  };

  /// Subsequent spans belong to (workload, rep); recorded only when `on`.
  void set_context(const char* workload, int rep, bool on) {
    workload_ = workload;
    rep_ = rep;
    on_ = on;
  }

  [[nodiscard]] Scope open(const char* name) {
    if (!on_) return Scope(nullptr, -1);
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_us(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), workload_,
                          rep_});
    stack_.push_back(index);
    return Scope(this, index);
  }

  /// Self time (duration minus the time covered by child spans), summed per
  /// span name, for one workload.
  [[nodiscard]] std::map<std::string, std::pair<double, std::uint64_t>>
  self_times(const std::string& workload) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (workload != spans_[i].workload) continue;
      auto& slot = out[spans_[i].name];
      slot.first += spans_[i].end_us - spans_[i].start_us - child_us[i];
      ++slot.second;
    }
    return out;
  }

  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"rcs_bench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\","
                    "\"rep\":%d}}",
                    i == 0 ? "" : ",\n", s.name, s.start_us,
                    s.end_us - s.start_us, i, s.parent, s.workload, s.rep);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  bool on_{false};
  const char* workload_{""};
  int rep_{0};
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

// ---------------------------------------------------------------------------
// Box-speed calibration. On a shared VM, neighbours slow the whole box by
// 10-25% for tens of seconds at a time, which no number of reps averages
// out. A fixed harness-only kernel (std::map and std::string churn,
// allocation-heavy like the stack itself) runs every ~30 ms of work, and
// its time tracks the box's momentary speed. The host time between two
// kernel runs is scaled by their mean to a nominal box on which one run
// takes kNominalCalibrationMs; the bounded end-to-end metrics use the scaled
// time and the raw one is reported beside it. Kernel time and allocations
// are kept out of every measurement of the stack.
// ---------------------------------------------------------------------------

constexpr double kNominalCalibrationMs = 1.0;
constexpr int kCalibrationOps = 6000;

/// Host time spent outside the kernel since start, as measured and scaled.
struct HostTime {
  double raw_us{0};
  double scaled_us{0};
};

HostTime g_host;
double g_segment_start_us = 0;  // end of the previous kernel run
double g_previous_kernel_ms = 0;
std::vector<double> g_kernel_ms;  // kernel times since the last take
std::uint64_t g_kernel_sink = 0;

/// Ends the current segment of work with one kernel run and returns the
/// host time so far; the difference of two calls measures what ran between.
HostTime calibrate() {
  const std::uint64_t allocs = g_allocs;
  const std::uint64_t alloc_bytes = g_alloc_bytes;
  const double t0 = now_us();
  {
    auto span = g_spans.open("calibrate");
    std::map<std::uint64_t, std::string> churn;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kCalibrationOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      churn[x % 4096] = std::string(40 + x % 64, 'c');
      if (churn.size() > 2048) churn.erase(churn.begin());
    }
    g_kernel_sink += churn.size();
  }
  const double t1 = now_us();
  const double kernel_ms = (t1 - t0) / 1e3;
  const double mean_ms = g_previous_kernel_ms > 0
                             ? (g_previous_kernel_ms + kernel_ms) / 2
                             : kernel_ms;
  const double segment_us = t0 - g_segment_start_us;
  g_host.raw_us += segment_us;
  g_host.scaled_us += segment_us * kNominalCalibrationMs / mean_ms;
  g_segment_start_us = t1;
  g_previous_kernel_ms = kernel_ms;
  g_kernel_ms.push_back(kernel_ms);
  g_allocs = allocs;
  g_alloc_bytes = alloc_bytes;
  return g_host;
}

std::vector<double> take_kernel_ms() { return std::exchange(g_kernel_ms, {}); }

// ---------------------------------------------------------------------------
// Small statistics and hashing helpers.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Inter-quartile range with the interpolation of Python's
/// statistics.quantiles(values, n=4) (method "exclusive").
double iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto m = static_cast<long>(v.size());
  const auto quartile = [&](long i) {
    const long j = std::clamp((i * (m + 1)) / 4, 1L, m - 1);
    const long delta = i * (m + 1) - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return quartile(3) - quartile(1);
}

/// Nearest-rank quantile, the same rule as ClientFleet::Window::quantile_ms.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank];
}

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// FNV-1a over the simulated outputs of one rep.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_{0xCBF29CE484222325ULL};
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

constexpr sim::Duration kSlice = 100 * sim::kMillisecond;
constexpr std::size_t kClients = 40;
constexpr sim::Duration kWarmup = 5 * sim::kSecond;
constexpr sim::Duration kDrain = 30 * sim::kSecond;
constexpr sim::Duration kTransitionEvery = 5 * sim::kSecond;
constexpr std::uint64_t kChaosSeedsPerSet = 100;
// About 30 ms of host time between calibrations: ~3% overhead.
constexpr std::uint64_t kCalibrateEvery = 50;     // fleet slices
constexpr std::size_t kCalibrateEveryCampaigns = 5;

/// A fleet workload: one deployment under an open-loop Poisson fleet.
struct FleetSpec {
  bool delta;
  double offered_rps;
  sim::Duration measure;  // steady workloads
  int transitions;        // > 0: adapt_cycle, one every kTransitionEvery
  bool monitoring;
  int max_attempts;
};

struct WorkloadDef {
  const char* name;
  std::optional<FleetSpec> fleet;  // empty: chaos_mix
};

// steady_*: 120 req/s is 60% of the 200 req/s CPU ceiling that kv's 5 ms per
// request sets. adapt_cycle: 60 req/s stays below the 100 req/s ceiling of
// the TR-class FTMs, and transitions need patient clients (16 attempts, as
// in the load adapt scenario); monitoring stays off so the harness is the
// only source of transitions.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"steady_delta",
       FleetSpec{true, 120.0, 300 * sim::kSecond, 0, true, 12}},
      {"steady_full",
       FleetSpec{false, 120.0, 120 * sim::kSecond, 0, true, 12}},
      {"adapt_cycle", FleetSpec{true, 60.0, 0, 60, false, 16}},
      {"chaos_mix", std::nullopt},
  };
  return defs;
}

const std::vector<ftm::FtmConfig>& transition_cycle() {
  static const std::vector<ftm::FtmConfig> cycle = {
      ftm::FtmConfig::lfr(),   ftm::FtmConfig::lfr_tr(),
      ftm::FtmConfig::pbr_tr(), ftm::FtmConfig::a_pbr(),
      ftm::FtmConfig::a_lfr(), ftm::FtmConfig::pbr()};
  return cycle;
}

struct Scale {
  bool quick{false};
  [[nodiscard]] sim::Duration horizon(sim::Duration d) const {
    return quick ? d / 10 : d;
  }
  [[nodiscard]] int count(int n) const { return quick ? std::max(1, n / 10) : n; }
};

/// Kernel counters summed over the replicas, read straight from the
/// registry cells the kernels bind ("ftm.<name>@<host>"). Cells survive
/// redeploys (a fresh kernel re-seeds its cell from zero), so the harness
/// samples at every boundary and sums the increases, treating a drop as a
/// restart.
constexpr const char* kFtmCounters[] = {
    "requests",          "replies",    "duplicates_served",
    "forwarded",         "checkpoints_sent", "deltas_sent",
    "full_checkpoints_sent", "resyncs", "promotions"};
constexpr std::size_t kFtmCounterCount = std::size(kFtmCounters);

class KernelCounters {
 public:
  explicit KernelCounters(core::ResilientSystem& system) {
    auto& metrics = system.sim().metrics();
    for (std::size_t r = 0; r < system.replica_count(); ++r) {
      const std::string& host = system.replica(r).name();
      for (std::size_t c = 0; c < kFtmCounterCount; ++c) {
        cells_.push_back(
            metrics.counter_cell(strf("ftm.", kFtmCounters[c], "@", host)));
      }
      buffered_.push_back(metrics.counter_cell(strf("ftm.buffered@", host)));
    }
    last_.assign(cells_.size(), 0);
    sample();
    totals_.fill(0);
  }

  void sample() {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::uint64_t cur = *cells_[i];
      totals_[i % kFtmCounterCount] += cur >= last_[i] ? cur - last_[i] : cur;
      last_[i] = cur;
    }
  }

  /// The kernel's `buffered` cell is a high-water mark of its quiescence
  /// queue; zeroing it before a transition makes its value afterwards that
  /// transition's peak. Only this observability cell is written.
  void reset_buffered() {
    for (std::uint64_t* cell : buffered_) *cell = 0;
  }
  [[nodiscard]] std::uint64_t buffered() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t* cell : buffered_) sum += *cell;
    return sum;
  }

  [[nodiscard]] std::uint64_t total(std::size_t counter) const {
    return totals_[counter];
  }
  /// Current absolute values (for the HistoryChecker's kernel inputs).
  [[nodiscard]] std::uint64_t current(const char* name) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (std::strcmp(kFtmCounters[i % kFtmCounterCount], name) == 0) {
        sum += *cells_[i];
      }
    }
    return sum;
  }

 private:
  std::vector<std::uint64_t*> cells_;
  std::vector<std::uint64_t*> buffered_;
  std::vector<std::uint64_t> last_;
  std::array<std::uint64_t, kFtmCounterCount> totals_{};
};

std::size_t ftm_index(const char* name) {
  for (std::size_t i = 0; i < kFtmCounterCount; ++i) {
    if (std::strcmp(kFtmCounters[i], name) == 0) return i;
  }
  std::fprintf(stderr, "rcs_bench: unknown kernel counter %s\n", name);
  std::abort();
}

/// Everything one rep measured. Host times are per rep; counts cover the
/// measured phase unless noted.
struct Rep {
  bool traced{false};
  // Host time.
  double deploy_ms{0};
  double fleet_build_ms{0};
  double phase_s{0};         // measured phase, as measured
  double phase_scaled_s{0};  // the same on the nominal box
  std::vector<double> kernel_ms;
  double history_check_ms{0};
  std::vector<double> slice_ms;       // 100 ms slices; campaigns on chaos_mix
  std::vector<double> transition_ms;  // transition_and_wait calls
  // The workload's operations: requests on the fleet workloads, campaigns
  // on chaos_mix (a campaign fails only if it throws; its verdict is an
  // output).
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  // Whole-rep request accounting (warm-up and drain included).
  std::uint64_t requests{0};
  std::uint64_t requests_failed{0};  // errors + gave up + pending after drain
  std::uint64_t gave_up{0};
  // Measured-phase counts.
  std::uint64_t ok{0};
  std::uint64_t retries{0};
  std::uint64_t events{0};
  std::uint64_t cascades{0};
  std::uint64_t peak_pending{0};
  std::uint64_t msgs{0};
  std::uint64_t bytes{0};
  std::uint64_t replica_bytes{0};
  double queueing_ms{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  std::uint64_t transition_allocs{0};
  std::array<std::uint64_t, kFtmCounterCount> ftm{};
  std::uint64_t buffered{0};
  double cpu_util{0};
  // Simulated outputs (virtual time; identical across reps).
  std::vector<double> latencies_ms;
  std::vector<double> transition_virtual_ms;
  std::vector<double> step_quiesce_ms, step_deploy_ms, step_script_ms,
      step_removal_ms;
  std::uint64_t package_bytes{0};
  std::uint64_t components{0};
  std::uint64_t transitions_failed{0};
  std::uint64_t manager_transitions{0};
  std::uint64_t violations{0};
  /// One line per run that broke an invariant: count and first violation.
  std::vector<std::string> violation_notes;
  std::uint64_t campaigns_failed{0};
  std::uint64_t fsim_fires{0};
  std::uint64_t fsim_pairs{0};
  std::uint64_t digest{0};
};

void note_violations(Rep& rep, const std::string& label,
                     const ftm::InvariantReport& report) {
  if (report.ok()) return;
  rep.violations += report.violations.size();
  rep.violation_notes.push_back(strf(label, ": ", report.violations.size(),
                                     ", first: ", report.violations.front()));
}

/// Runs `duration` of virtual time in kSlice run_for calls, timing each and
/// calibrating after every kCalibrateEvery of them.
void run_slices(sim::Simulation& sim, sim::Duration duration,
                std::vector<double>* slice_ms) {
  static std::uint64_t slices = 0;
  const sim::Time end = sim.now() + duration;
  while (sim.now() < end) {
    const sim::Duration step = std::min(kSlice, end - sim.now());
    {
      auto span = g_spans.open("run_for");
      const double t0 = now_us();
      sim.run_for(step);
      if (slice_ms != nullptr) slice_ms->push_back((now_us() - t0) / 1e3);
    }
    if (++slices % kCalibrateEvery == 0) calibrate();
  }
}

// --- Fleet workloads ---------------------------------------------------------

struct FleetSetup {
  std::unique_ptr<core::ResilientSystem> system;
  std::unique_ptr<load::ClientFleet> fleet;
  double setup_s{0};
  double deploy_ms{0};
  double fleet_build_ms{0};
};

FleetSetup build_fleet(const FleetSpec& spec, std::uint64_t seed) {
  FleetSetup s;
  const double t0 = now_us();
  {
    auto span = g_spans.open("ResilientSystem");
    core::SystemOptions sys;
    sys.seed = seed;
    sys.start_monitoring = spec.monitoring;
    s.system = std::make_unique<core::ResilientSystem>(sys);
  }
  const double t1 = now_us();
  {
    auto span = g_spans.open("deploy_and_wait");
    ftm::FtmConfig config = ftm::FtmConfig::pbr();
    config.delta_checkpoint = spec.delta;
    const auto report = s.system->deploy_and_wait(config);
    if (!report.ok) throw std::runtime_error("initial deployment failed");
  }
  const double t2 = now_us();
  {
    auto span = g_spans.open("ClientFleet");
    load::FleetOptions options;
    options.clients = kClients;
    options.seed = seed;
    options.record_history = true;
    options.client.max_attempts = spec.max_attempts;
    s.fleet = std::make_unique<load::ClientFleet>(
        *s.system, options,
        load::make_process("open",
                           spec.offered_rps / static_cast<double>(kClients)));
  }
  const double t3 = now_us();
  s.setup_s = (t3 - t0) / 1e6;
  s.deploy_ms = (t2 - t1) / 1e3;
  s.fleet_build_ms = (t3 - t2) / 1e3;
  return s;
}

struct WireTotals {
  std::uint64_t msgs{0};
  std::uint64_t bytes{0};
  std::uint64_t replica_bytes{0};
  sim::Duration queueing{0};
};

WireTotals wire_totals(core::ResilientSystem& system) {
  WireTotals w;
  auto& net = system.sim().network();
  for (std::size_t h = 0; h < system.sim().host_count(); ++h) {
    const auto& traffic = net.traffic(HostId(static_cast<std::uint32_t>(h)));
    w.msgs += traffic.messages_sent;
    w.bytes += traffic.bytes_sent;
  }
  for (std::size_t i = 0; i < system.replica_count(); ++i) {
    for (std::size_t j = i + 1; j < system.replica_count(); ++j) {
      const auto stats =
          net.link_stats(system.replica(i).id(), system.replica(j).id());
      w.replica_bytes += stats.bytes;
      w.queueing += stats.queueing;
    }
  }
  return w;
}

/// One fleet rep. `judge`: also check the merged history (the check costs
/// about a third of a steady rep and its verdict repeats exactly, so only
/// the reps whose verdict is reported or traced pay for it).
Rep run_fleet_rep(const FleetSpec& spec, std::uint64_t seed,
                  const Scale& scale, bool judge) {
  Rep rep;
  Digest digest;
  FleetSetup setup = build_fleet(spec, seed);
  rep.deploy_ms = setup.deploy_ms;
  rep.fleet_build_ms = setup.fleet_build_ms;
  core::ResilientSystem& system = *setup.system;
  load::ClientFleet& fleet = *setup.fleet;
  auto& sim = system.sim();
  KernelCounters kernel(system);
  const std::size_t replicas = system.replica_count();

  fleet.start();
  run_slices(sim, kWarmup, nullptr);

  // --- Measured phase.
  kernel.sample();
  const std::uint64_t events0 = sim.loop().processed();
  const std::uint64_t cascades0 = sim.loop().wheel_stats().cascaded_entries;
  const WireTotals wire0 = wire_totals(system);
  std::vector<sim::Duration> cpu0(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    cpu0[r] = system.replica(r).meter().cpu_used();
  }
  const sim::Time virtual0 = sim.now();
  fleet.begin_window();
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t alloc_bytes0 = g_alloc_bytes;
  const HostTime h0 = calibrate();
  {
    auto span = g_spans.open("measured_phase");
    if (spec.transitions == 0) {
      run_slices(sim, scale.horizon(spec.measure), &rep.slice_ms);
    } else {
      const int transitions = scale.count(spec.transitions);
      const auto& cycle = transition_cycle();
      for (int k = 0; k < transitions; ++k) {
        const sim::Time next = virtual0 + (k + 1) * kTransitionEvery;
        kernel.sample();
        kernel.reset_buffered();
        const std::uint64_t a0 = g_allocs;
        const double tt = now_us();
        core::TransitionReport report;
        {
          auto tspan = g_spans.open("transition_and_wait");
          report = system.transition_and_wait(
              cycle[static_cast<std::size_t>(k) % cycle.size()]);
        }
        rep.transition_ms.push_back((now_us() - tt) / 1e3);
        rep.transition_allocs += g_allocs - a0;
        rep.buffered += kernel.buffered();
        kernel.sample();
        if (!report.ok) ++rep.transitions_failed;
        digest.u64(report.ok ? 1 : 0);
        digest.i64(report.engine_total);
        digest.u64(report.package_bytes);
        rep.transition_virtual_ms.push_back(sim::to_ms(report.engine_total));
        rep.package_bytes += report.package_bytes;
        rep.components += static_cast<std::uint64_t>(report.components_shipped);
        sim::Duration q = 0, d = 0, s = 0, rm = 0;
        std::int64_t n = 0;
        for (const auto& outcome : report.replicas) {
          if (!outcome.responded) continue;
          q += outcome.timings.quiesce;
          d += outcome.timings.deploy;
          s += outcome.timings.script;
          rm += outcome.timings.removal;
          ++n;
          digest.i64(outcome.timings.total());
        }
        if (n > 0) {
          rep.step_quiesce_ms.push_back(sim::to_ms(q / n));
          rep.step_deploy_ms.push_back(sim::to_ms(d / n));
          rep.step_script_ms.push_back(sim::to_ms(s / n));
          rep.step_removal_ms.push_back(sim::to_ms(rm / n));
        }
        if (sim.now() < next) run_slices(sim, next - sim.now(), &rep.slice_ms);
      }
    }
  }
  const HostTime h1 = calibrate();
  rep.phase_s = (h1.raw_us - h0.raw_us) / 1e6;
  rep.phase_scaled_s = (h1.scaled_us - h0.scaled_us) / 1e6;
  rep.allocs = g_allocs - allocs0;
  rep.alloc_bytes = g_alloc_bytes - alloc_bytes0;
  kernel.sample();
  for (std::size_t c = 0; c < kFtmCounterCount; ++c) rep.ftm[c] = kernel.total(c);
  rep.events = sim.loop().processed() - events0;
  rep.cascades = sim.loop().wheel_stats().cascaded_entries - cascades0;
  const WireTotals wire1 = wire_totals(system);
  rep.msgs = wire1.msgs - wire0.msgs;
  rep.bytes = wire1.bytes - wire0.bytes;
  rep.replica_bytes = wire1.replica_bytes - wire0.replica_bytes;
  rep.queueing_ms = sim::to_ms(wire1.queueing - wire0.queueing);
  const double phase_virtual_us = static_cast<double>(sim.now() - virtual0);
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto used = system.replica(r).meter().cpu_used() - cpu0[r];
    rep.cpu_util = std::max(
        rep.cpu_util, per(static_cast<double>(used), phase_virtual_us));
  }
  const auto window = fleet.window();
  rep.ok = window.delta.ok;
  rep.retries = window.delta.retries;
  for (const auto latency : window.latencies) {
    rep.latencies_ms.push_back(sim::to_ms(latency));
  }

  // --- Drain, then judge the whole history.
  fleet.stop();
  const sim::Time drain_deadline = sim.now() + kDrain;
  while (fleet.outstanding() > 0 && sim.now() < drain_deadline) {
    run_slices(sim, kSlice, nullptr);
  }
  rep.peak_pending = sim.loop().peak_pending();
  const auto totals = fleet.totals();
  rep.requests = totals.sent;
  rep.gave_up = totals.gave_up;
  rep.requests_failed = totals.errors + totals.gave_up + fleet.outstanding();
  rep.attempted = rep.requests;
  rep.failed = rep.requests_failed;

  std::int64_t final_counter = 0;
  bool final_counter_valid = false;
  try {
    auto span = g_spans.open("roundtrip");
    const Value read = system.roundtrip(
        Value::map().set("op", "get").set("key", "ctr"), 15 * sim::kSecond);
    if (read.is_map() && !read.has("error") && read.has("result")) {
      const Value& result = read.at("result");
      if (result.at("found").as_bool()) final_counter = result.at("value").as_int();
      final_counter_valid = true;
    }
  } catch (const std::exception&) {
    final_counter_valid = false;
  }

  for (const auto& entry : system.manager().history()) {
    if (entry.executed) ++rep.manager_transitions;
  }
  digest.u64(rep.ok);
  digest.u64(rep.requests);
  digest.u64(rep.requests_failed);
  digest.u64(rep.retries);
  digest.u64(rep.events);
  digest.u64(sim.loop().processed());
  for (const auto latency : window.latencies) digest.i64(latency);
  for (const auto v : rep.ftm) digest.u64(v);
  digest.u64(rep.buffered);
  digest.i64(final_counter);
  digest.u64(rep.manager_transitions);
  rep.digest = digest.value();

  if (!judge) return rep;
  ftm::HistoryChecker::Inputs inputs;
  inputs.counter_key = "ctr";
  inputs.final_counter = final_counter;
  inputs.final_counter_valid = final_counter_valid;
  inputs.outstanding = fleet.outstanding();
  inputs.result_valid = [](const Value& value) {
    return app::AppServerBase::checksum_ok(value);
  };
  // Transitions may redeploy kernels, wiping their counters.
  inputs.kernel_counters_valid = spec.transitions == 0;
  inputs.kernel_requests = kernel.current("requests");
  inputs.kernel_replies =
      kernel.current("replies") + kernel.current("duplicates_served");
  std::vector<ftm::HistoryRecord> records;
  {
    auto span = g_spans.open("merged_history");
    records = fleet.merged_history();
  }
  ftm::InvariantReport report;
  {
    auto span = g_spans.open("HistoryChecker::check");
    const double t = now_us();
    report = ftm::HistoryChecker::check(records, inputs);
    rep.history_check_ms = (now_us() - t) / 1e3;
  }
  if (!final_counter_valid) {
    report.violations.push_back("final counter read failed after drain");
  }
  note_violations(rep, "fleet", report);
  return rep;
}

// --- chaos_mix -----------------------------------------------------------------

/// Seed s covers campaign seeds (s-1)*100+1 .. s*100, each as PBR, LFR and
/// TR with delta and full checkpoints, plus one PBR->LFR transition
/// campaign. Campaigns differ in cost by seed (a lost service retries for
/// seconds), so a set of 100 keeps one set's cost per request within a few
/// percent of another's.
std::vector<core::ChaosCampaignOptions> chaos_campaigns(std::uint64_t seed,
                                                        const Scale& scale) {
  std::vector<core::ChaosCampaignOptions> out;
  const auto seeds = static_cast<std::uint64_t>(
      scale.count(static_cast<int>(kChaosSeedsPerSet)));
  const std::uint64_t base = (seed - 1) * kChaosSeedsPerSet;
  for (std::uint64_t i = 1; i <= seeds; ++i) {
    for (const char* ftm : {"PBR", "LFR", "TR"}) {
      for (const bool delta : {true, false}) {
        core::ChaosCampaignOptions options;
        options.seed = base + i;
        options.ftm = ftm;
        options.delta_checkpoint = delta;
        out.push_back(options);
      }
    }
    core::ChaosCampaignOptions transition;
    transition.seed = base + i;
    transition.ftm = "PBR";
    transition.transition_to = "LFR";
    out.push_back(transition);
  }
  return out;
}

/// One system set up the way run_campaign sets one up, timed.
double sample_chaos_setup(std::uint64_t seed, double* deploy_ms = nullptr) {
  const double t0 = now_us();
  core::SystemOptions sys;
  sys.seed = seed;
  sys.start_monitoring = false;
  std::unique_ptr<core::ResilientSystem> system;
  {
    auto span = g_spans.open("ResilientSystem");
    system = std::make_unique<core::ResilientSystem>(sys);
  }
  system->sim().loop().reserve(256);
  system->sim().fsim().reseed(seed ^ 0x0F51DC0DE5EEDB0BULL);
  system->sim().fsim().set_enabled(true);
  const double t1 = now_us();
  {
    auto span = g_spans.open("deploy_and_wait");
    const auto report = system->deploy_and_wait(ftm::FtmConfig::pbr());
    if (!report.ok) throw std::runtime_error("chaos setup deployment failed");
  }
  const double t2 = now_us();
  if (deploy_ms != nullptr) *deploy_ms = (t2 - t1) / 1e3;
  return (t2 - t0) / 1e6;
}

Rep run_chaos_rep(std::uint64_t seed, const Scale& scale) {
  Rep rep;
  sample_chaos_setup(seed, &rep.deploy_ms);
  const auto campaigns = chaos_campaigns(seed, scale);
  Digest digest;
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t alloc_bytes0 = g_alloc_bytes;
  const HostTime h0 = calibrate();
  {
    auto phase = g_spans.open("measured_phase");
    for (const auto& options : campaigns) {
      if (++rep.attempted % kCalibrateEveryCampaigns == 0) calibrate();
      const double t0 = now_us();
      core::ChaosCampaignResult result;
      try {
        auto span = g_spans.open("run_campaign");
        result = core::run_campaign(options);
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.violation_notes.push_back(
            strf("seed ", options.seed, " ", options.ftm, ": threw ", e.what()));
        continue;
      }
      rep.slice_ms.push_back((now_us() - t0) / 1e3);
      if (!result.passed) ++rep.campaigns_failed;
      note_violations(rep, strf("seed ", options.seed, " ", result.label),
                      result.report);
      const auto& stats = result.client_stats;
      rep.requests += stats.sent;
      rep.requests_failed += stats.sent - stats.ok;  // errors, gave up, pending
      rep.ok += stats.ok;
      rep.retries += stats.retries;
      rep.gave_up += stats.gave_up;
      for (const auto latency : stats.reservoir) {
        rep.latencies_ms.push_back(sim::to_ms(latency));
      }
      rep.events += result.events;
      rep.cascades += result.wheel.cascaded_entries;
      rep.peak_pending = std::max<std::uint64_t>(rep.peak_pending,
                                                 result.peak_queue_depth);
      rep.fsim_fires += result.fsim.fire_total();
      rep.fsim_pairs += result.fsim.pair_count();
      digest.str(result.trace);
      digest.u64(result.events);
    }
  }
  const HostTime h1 = calibrate();
  rep.phase_s = (h1.raw_us - h0.raw_us) / 1e6;
  rep.phase_scaled_s = (h1.scaled_us - h0.scaled_us) / 1e6;
  rep.allocs = g_allocs - allocs0;
  rep.alloc_bytes = g_alloc_bytes - alloc_bytes0;
  rep.digest = digest.value();
  return rep;
}

/// Kernel counters of chaos campaigns are reachable only through the
/// campaign's metrics export, which needs its in-sim tracing on. The traced
/// invocation runs the campaigns once more that way, untimed, to fill the
/// ftm.* per-layer counts (surviving kernel instances only: a crash wipes
/// its kernel's counters).
void count_chaos_kernels(std::uint64_t seed, const Scale& scale, Rep& rep) {
  rep.ftm.fill(0);
  for (auto options : chaos_campaigns(seed, scale)) {
    options.record_trace = true;
    core::ChaosCampaignResult result;
    try {
      result = core::run_campaign(options);
    } catch (const std::exception&) {
      continue;  // already reported by the timed reps
    }
    std::istringstream lines(result.metrics_json);
    std::string line;
    while (std::getline(lines, line)) {
      const auto name_at = line.find("\"name\":\"ftm.");
      const auto value_at = line.find("\"value\":");
      if (name_at == std::string::npos || value_at == std::string::npos) continue;
      const auto begin = name_at + std::strlen("\"name\":\"ftm.");
      const auto end = line.find('@', begin);
      if (end == std::string::npos) continue;
      const std::string counter = line.substr(begin, end - begin);
      for (std::size_t c = 0; c < kFtmCounterCount; ++c) {
        if (counter == kFtmCounters[c]) {
          rep.ftm[c] += std::strtoull(
              line.c_str() + value_at + std::strlen("\"value\":"), nullptr, 10);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics, checks and output.
// ---------------------------------------------------------------------------

enum class Kind { kEndToEnd, kOutput, kLayer };

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::optional<double> iqr;
  const char* better;
  Kind kind;
};

struct Baseline {
  double fail_ratio{0};
  std::uint64_t violations{0};
  std::uint64_t digest{0};
};

/// Baselines file: "<workload> <seed> <fail_ratio> <violations> <digest>"
/// per line, '#' comments. Missing file or entry: no baseline.
std::map<std::pair<std::string, std::uint64_t>, Baseline> load_baselines(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, Baseline> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, digest;
    std::uint64_t seed = 0;
    Baseline b;
    if (fields >> workload >> seed >> b.fail_ratio >> b.violations >> digest) {
      b.digest = std::strtoull(digest.c_str(), nullptr, 16);
      out[{workload, seed}] = b;
    }
  }
  return out;
}

struct Options {
  std::string workload{"all"};
  std::uint64_t seed{1};
  int reps{5};
  double seconds{0};  // > 0: reps until this much host time is spent
  bool quick{false};
  std::string trace;
};

struct Outcome {
  bool correct{true};
  std::vector<std::string> failures;
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

template <typename F>
std::vector<double> collect(const std::vector<const Rep*>& reps, F&& f) {
  std::vector<double> out;
  for (const Rep* rep : reps) out.push_back(f(*rep));
  return out;
}

std::vector<Metric> derive_metrics(const WorkloadDef& def,
                                   const std::vector<Rep>& reps,
                                   const std::vector<double>& setup_samples,
                                   const std::vector<double>& setup_scaled) {
  std::vector<const Rep*> untraced;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) (rep.traced ? traced : untraced).push_back(&rep);
  const Rep& first = *untraced.front();
  // The first rep warms the heap and caches; host times come from the rest.
  const std::vector<const Rep*> timed_reps(
      untraced.begin() + (untraced.size() > 1 ? 1 : 0), untraced.end());
  const double ok = static_cast<double>(first.ok);
  const bool adapt = def.fleet && def.fleet->transitions > 0;

  std::vector<Metric> m;
  const auto timed = [&](const char* name, const char* unit, const char* better,
                         Kind kind, const std::vector<double>& values) {
    m.push_back({name, unit, median(values), iqr(values), better, kind});
  };
  const auto exact = [&](const char* name, const char* unit, const char* better,
                         Kind kind, double value) {
    m.push_back({name, unit, value, std::nullopt, better, kind});
  };
  const auto raw_rate = [](const Rep& r) {
    return per(static_cast<double>(r.ok), r.phase_s);
  };
  const auto rate = [](const Rep& r) {
    return per(static_cast<double>(r.ok), r.phase_scaled_s);
  };

  // --- End to end. Host times are scaled to the nominal box; *_raw are as
  // measured on this one.
  timed("req_per_s", "req/s", "higher", Kind::kEndToEnd,
        collect(timed_reps, rate));
  timed("setup_s", "s", "lower", Kind::kEndToEnd, setup_scaled);
  exact("peak_rss_mb", "MB", "lower", Kind::kEndToEnd, peak_rss_mb());
  timed("req_per_s_raw", "req/s", "higher", Kind::kEndToEnd,
        collect(timed_reps, raw_rate));
  timed("setup_s_raw", "s", "lower", Kind::kEndToEnd, setup_samples);
  timed("box.calibration_ms", "ms", "lower", Kind::kEndToEnd,
        collect(timed_reps, [](const Rep& r) { return median(r.kernel_ms); }));
  exact("latency_p50_ms", "virtual_ms", "lower", Kind::kOutput,
        quantile(first.latencies_ms, 0.50));
  exact("latency_p99_ms", "virtual_ms", "lower", Kind::kOutput,
        quantile(first.latencies_ms, 0.99));
  exact("latency_samples", "count", "higher", Kind::kOutput,
        static_cast<double>(first.latencies_ms.size()));
  exact("fail_ratio", "ratio", "lower", Kind::kOutput,
        per(static_cast<double>(first.requests_failed),
            static_cast<double>(first.requests)));
  exact("violations", "count", "lower", Kind::kOutput,
        static_cast<double>(first.violations));
  if (adapt) {
    exact("transition_ms_p50", "virtual_ms", "lower", Kind::kOutput,
          median(first.transition_virtual_ms));
  }

  // --- Per layer. Counts repeat exactly; host times are rep medians.
  const auto per_req = [&](double v) { return per(v, ok); };
  exact("sim.events_per_req", "events/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.events)));
  exact("sim.wheel_cascades_per_req", "count/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.cascades)));
  timed("sim.host_ns_per_event", "ns", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) {
          return per(r.phase_s * 1e9, static_cast<double>(r.events));
        }));
  exact("sim.peak_pending", "count", "lower", Kind::kLayer,
        static_cast<double>(first.peak_pending));
  timed("sim.slice_ms_p50", "ms", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) { return quantile(r.slice_ms, 0.50); }));
  timed("sim.slice_ms_p99", "ms", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) { return quantile(r.slice_ms, 0.99); }));
  exact("net.msgs_per_req", "msgs/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.msgs)));
  exact("net.bytes_per_req", "B/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.bytes)));
  exact("net.replica_bytes_per_req", "B/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.replica_bytes)));
  exact("net.queueing_ms_per_req", "virtual_ms/req", "lower", Kind::kLayer,
        per_req(first.queueing_ms));
  timed("heap.allocs_per_req", "allocs/req", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) {
          return per(static_cast<double>(r.allocs), static_cast<double>(r.ok));
        }));
  timed("heap.bytes_per_req", "B/req", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) {
          return per(static_cast<double>(r.alloc_bytes), static_cast<double>(r.ok));
        }));
  const auto transitions = static_cast<double>(first.transition_ms.size());
  timed("heap.allocs_per_transition", "allocs", "lower", Kind::kLayer,
        collect(timed_reps, [&](const Rep& r) {
          return per(static_cast<double>(r.transition_allocs), transitions);
        }));
  const auto ftm = [&](const char* counter) {
    return static_cast<double>(first.ftm[ftm_index(counter)]);
  };
  exact("ftm.requests_per_req", "count/req", "lower", Kind::kLayer,
        per_req(ftm("requests")));
  exact("ftm.checkpoints_per_req", "count/req", "lower", Kind::kLayer,
        per_req(ftm("checkpoints_sent")));
  exact("ftm.full_ckpt_per_req", "count/req", "lower", Kind::kLayer,
        per_req(ftm("full_checkpoints_sent")));
  exact("ftm.deltas_per_req", "count/req", "lower", Kind::kLayer,
        per_req(ftm("deltas_sent")));
  exact("ftm.forwarded_per_req", "count/req", "lower", Kind::kLayer,
        per_req(ftm("forwarded")));
  exact("ftm.buffered_per_transition", "count", "lower", Kind::kLayer,
        per(static_cast<double>(first.buffered), transitions));
  exact("ftm.resyncs", "count", "lower", Kind::kLayer, ftm("resyncs"));
  exact("ftm.promotions", "count", "lower", Kind::kLayer, ftm("promotions"));
  exact("ftm.duplicates_served", "count", "lower", Kind::kLayer,
        ftm("duplicates_served"));
  exact("client.retries_per_req", "count/req", "lower", Kind::kLayer,
        per_req(static_cast<double>(first.retries)));
  exact("client.gave_up", "count", "lower", Kind::kLayer,
        static_cast<double>(first.gave_up));
  exact("app.cpu_util_primary", "ratio", "lower", Kind::kLayer, first.cpu_util);
  timed("core.deploy_host_ms", "ms", "lower", Kind::kLayer,
        collect(timed_reps, [](const Rep& r) { return r.deploy_ms; }));
  if (def.fleet) {
    timed("load.fleet_build_ms", "ms", "lower", Kind::kLayer,
          collect(timed_reps, [](const Rep& r) { return r.fleet_build_ms; }));
    // Measured once per invocation, on the judged untraced rep.
    exact("load.history_check_ms", "ms", "lower", Kind::kLayer,
          first.history_check_ms);
  }
  if (adapt) {
    timed("core.transition_host_ms_p50", "ms", "lower", Kind::kLayer,
          collect(timed_reps, [](const Rep& r) { return quantile(r.transition_ms, 0.50); }));
    timed("core.transition_host_ms_p99", "ms", "lower", Kind::kLayer,
          collect(timed_reps, [](const Rep& r) { return quantile(r.transition_ms, 0.99); }));
  }
  exact("core.package_bytes_per_transition", "B", "lower", Kind::kLayer,
        per(static_cast<double>(first.package_bytes), transitions));
  exact("core.components_per_transition", "count", "lower", Kind::kLayer,
        per(static_cast<double>(first.components), transitions));
  exact("core.step_quiesce_ms", "virtual_ms", "lower", Kind::kLayer,
        median(first.step_quiesce_ms));
  exact("core.step_deploy_ms", "virtual_ms", "lower", Kind::kLayer,
        median(first.step_deploy_ms));
  exact("core.step_script_ms", "virtual_ms", "lower", Kind::kLayer,
        median(first.step_script_ms));
  exact("core.step_removal_ms", "virtual_ms", "lower", Kind::kLayer,
        median(first.step_removal_ms));
  exact("core.transitions_failed", "count", "lower", Kind::kLayer,
        static_cast<double>(first.transitions_failed));
  if (!def.fleet) {
    timed("chaos.campaign_host_ms_p50", "ms", "lower", Kind::kLayer,
          collect(timed_reps, [](const Rep& r) { return quantile(r.slice_ms, 0.50); }));
    timed("chaos.campaign_host_ms_p99", "ms", "lower", Kind::kLayer,
          collect(timed_reps, [](const Rep& r) { return quantile(r.slice_ms, 0.99); }));
  }
  exact("chaos.campaigns_failed", "count", "lower", Kind::kLayer,
        static_cast<double>(first.campaigns_failed));
  exact("fsim.fires", "count", "lower", Kind::kLayer,
        static_cast<double>(first.fsim_fires));
  exact("fsim.pairs", "count", "higher", Kind::kLayer,
        static_cast<double>(first.fsim_pairs));
  if (!traced.empty()) {
    const double base = median(collect(timed_reps, rate));
    const double with = median(collect(traced, rate));
    exact("trace.overhead_pct", "%", "lower", Kind::kLayer,
          100.0 * per(base - with, base));
  }
  return m;
}

void check(const WorkloadDef& def, const Options& options,
           const std::vector<Rep>& reps, const std::vector<Metric>& metrics,
           const std::map<std::pair<std::string, std::uint64_t>, Baseline>&
               baselines,
           Outcome& outcome) {
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    if (rep.digest != first.digest) {
      outcome.fail(strf("reps disagree: digest ", rep.digest, " != ", first.digest));
      break;
    }
  }
  const auto value = [&](const char* name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  // At least ten samples beyond p99.
  if (value("latency_samples") * 0.01 < 10.0) {
    outcome.fail("too few latency samples for a p99");
  }
  if (first.ok == 0) outcome.fail("no request completed in the measured phase");
  const auto found = options.quick
                         ? baselines.end()
                         : baselines.find({def.name, options.seed});
  if (found != baselines.end()) {
    if (value("fail_ratio") != found->second.fail_ratio) {
      outcome.fail(strf("fail_ratio ", value("fail_ratio"), " != baseline ",
                        found->second.fail_ratio));
    }
    if (first.violations != found->second.violations) {
      outcome.fail(strf("violations ", first.violations, " != baseline ",
                        found->second.violations));
    }
  } else if (def.fleet) {
    // Fleet workloads carry no faults: every seed must be clean.
    if (first.requests_failed != 0) {
      outcome.fail(strf(first.requests_failed, " requests failed"));
    }
    if (first.violations != 0) {
      outcome.fail(strf(first.violations, " history violations"));
    }
  }
  if (!def.fleet && first.failed != 0) {
    outcome.fail(strf(first.failed, " campaigns threw"));
  }
  if (def.fleet && first.transitions_failed != 0) {
    outcome.fail(strf(first.transitions_failed, " transitions failed"));
  }
  if (def.fleet && def.fleet->transitions == 0 && first.manager_transitions != 0) {
    outcome.fail(strf("steady workload adapted ", first.manager_transitions,
                      " time(s) on its own"));
  }
}

void print_metric_line(const Metric& m) {
  if (m.iqr) {
    std::printf("  %-36s %14.6g %-14s IQR %-12.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), *m.iqr, m.better);
  } else {
    std::printf("  %-36s %14.6g %-14s %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), "(exact)", m.better);
  }
}

void print_json_result(const WorkloadDef& def, const Options& options,
                       const Rep& first, const std::vector<Metric>& metrics,
                       const Outcome& outcome) {
  std::string out = strf("RESULT {\"workload\":\"", def.name, "\",\"seed\":",
                         options.seed, ",\"correct\":",
                         outcome.correct ? "true" : "false",
                         ",\"attempted\":", first.attempted,
                         ",\"failed\":", first.failed, ",\"digest\":\"");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, first.digest);
  out += buf;
  out += "\",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += strf(i == 0 ? "" : ",", "\"", m.name, "\":{\"value\":", buf,
                ",\"unit\":\"", m.unit, "\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Runs one workload: setup samples, then reps (interleaving traced reps
/// when tracing), then metrics, checks and output.
bool run_workload(const WorkloadDef& def, const Options& options,
                  const std::map<std::pair<std::string, std::uint64_t>,
                                 Baseline>& baselines) {
  const Scale scale{options.quick};
  const bool tracing = !options.trace.empty();
  std::printf("\n== %s\n", def.name);
  std::fflush(stdout);

  // Set-up is ms-scale and noisy: time it many times, report the median.
  const int setup_samples = options.quick ? 3 : 21;
  std::vector<double> setups;
  g_spans.set_context(def.name, -1, tracing);
  std::vector<double> setups_scaled;
  for (int i = 0; i < setup_samples; ++i) {
    const HostTime h0 = calibrate();
    double setup_s = 0;
    {
      auto span = g_spans.open("setup_sample");
      setup_s = def.fleet ? build_fleet(*def.fleet, options.seed).setup_s
                          : sample_chaos_setup(options.seed);
    }
    const HostTime h1 = calibrate();
    setups.push_back(setup_s);
    setups_scaled.push_back(setup_s * (h1.scaled_us - h0.scaled_us) /
                            (h1.raw_us - h0.raw_us));
  }

  // --seconds: reps until the budget is spent, at least a warm-up rep and
  // three timed ones. Otherwise --reps (one with --quick). Tracing needs a
  // second rep to trace.
  const int min_reps = options.seconds > 0
                           ? (tracing ? 6 : 4)
                           : std::max(options.quick ? 1 : options.reps,
                                      tracing ? 2 : 1);
  std::vector<Rep> reps;
  int untraced_reps = 0;
  const double start = now_us();
  const auto more = [&] {
    const int n = static_cast<int>(reps.size());
    return n < min_reps || (options.seconds > 0 && n < 200 &&
                            (now_us() - start) / 1e6 < options.seconds);
  };
  while (more()) {
    // Tracing interleaves untraced and traced reps: even reps untraced.
    const int index = static_cast<int>(reps.size());
    const bool traced = tracing && index % 2 == 1;
    g_spans.set_context(def.name, index, traced);
    take_kernel_ms();
    Rep rep;
    {
      auto span = g_spans.open("rep");
      const bool judge = index == 0 || (traced && index == 1);
      rep = def.fleet ? run_fleet_rep(*def.fleet, options.seed, scale, judge)
                      : run_chaos_rep(options.seed, scale);
    }
    rep.traced = traced;
    rep.kernel_ms = take_kernel_ms();
    if (!traced) ++untraced_reps;
    reps.push_back(std::move(rep));
  }
  g_spans.set_context(def.name, -1, false);
  if (tracing && !def.fleet) count_chaos_kernels(options.seed, scale, reps.front());

  const auto metrics = derive_metrics(def, reps, setups, setups_scaled);
  Outcome outcome;
  check(def, options, reps, metrics, baselines, outcome);
  const Rep& first = reps.front();

  std::printf("  reps %zu (%d untraced)  requests/rep %" PRIu64
              "  ok in measured phase %" PRIu64 "\n",
              reps.size(), untraced_reps, first.requests, first.ok);
  std::printf("  req_per_s by rep (raw):");
  for (const Rep& rep : reps) {
    std::printf(" %.0f%s (%.0f)",
                per(static_cast<double>(rep.ok), rep.phase_scaled_s),
                rep.traced ? " traced" : "",
                per(static_cast<double>(rep.ok), rep.phase_s));
  }
  std::printf("\n  -- end to end\n");
  for (const Metric& m : metrics) {
    if (m.kind != Kind::kLayer) print_metric_line(m);
  }
  std::printf("  -- per layer\n");
  for (const Metric& m : metrics) {
    if (m.kind == Kind::kLayer) print_metric_line(m);
  }
  if (tracing) {
    std::printf("  -- span self time (traced reps)\n");
    const auto self = g_spans.self_times(def.name);
    std::vector<std::pair<std::string, std::pair<double, std::uint64_t>>> rows(
        self.begin(), self.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.first > b.second.first;
    });
    for (const auto& [name, row] : rows) {
      std::printf("  %-36s %14.3f ms self  %8" PRIu64 " spans\n", name.c_str(),
                  row.first / 1e3, row.second);
    }
  }
  const auto found = baselines.find({def.name, options.seed});
  std::printf("  digest %016" PRIx64 "  reps agree: %s  baseline digest: %s\n",
              first.digest,
              std::all_of(reps.begin(), reps.end(),
                          [&](const Rep& r) { return r.digest == first.digest; })
                  ? "yes"
                  : "NO",
              options.quick || found == baselines.end() ? "none"
              : found->second.digest == first.digest    ? "match"
                                                        : "CHANGED");
  if (!options.quick) {
    // A baselines.txt line for this run (README: recording baselines).
    std::printf("BASELINE %s %" PRIu64 " %.17g %" PRIu64 " %016" PRIx64 "\n",
                def.name, options.seed,
                per(static_cast<double>(first.requests_failed),
                    static_cast<double>(first.requests)),
                first.violations, first.digest);
  }
  for (const auto& v : first.violation_notes) {
    std::printf("  violation: %s\n", v.c_str());
  }
  for (const auto& f : outcome.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
  std::printf("  check: %s\n", outcome.correct ? "PASS" : "FAIL");
  print_json_result(def, options, first, metrics, outcome);
  std::fflush(stdout);
  return outcome.correct;
}

void usage() {
  std::fprintf(stderr,
               "usage: rcs_bench [--workload NAME|all] [--seed N]\n"
               "                 [--reps N | --seconds S] [--quick]\n"
               "                 [--trace FILE]\n"
               "workloads: steady_delta steady_full adapt_cycle chaos_mix\n");
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--workload" && (v = next())) {
      options.workload = v;
    } else if (arg == "--seed" && (v = next())) {
      options.seed = std::strtoull(v, nullptr, 10);
      if (options.seed == 0) return false;
    } else if (arg == "--reps" && (v = next())) {
      options.reps = std::atoi(v);
      if (options.reps < 1) return false;
    } else if (arg == "--seconds" && (v = next())) {
      options.seconds = std::atof(v);
      if (options.seconds <= 0) return false;
    } else if (arg == "--trace" && (v = next())) {
      options.trace = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }
  std::vector<const WorkloadDef*> selected;
  for (const auto& def : workloads()) {
    if (options.workload == "all" || options.workload == def.name) {
      selected.push_back(&def);
    }
  }
  if (selected.empty()) {
    usage();
    return 2;
  }
  rcs::log().set_level(rcs::LogLevel::kWarn);
  const auto baselines = load_baselines(RCS_BENCH_BASELINES);

  std::printf("rcs_bench seed=%" PRIu64 " nproc=%ld cpu=\"%s\" compiler=\"%s\" "
              "build=%s mode=%s\n",
              options.seed, sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
              RCS_BENCH_COMPILER, RCS_BENCH_BUILD_TYPE,
              options.quick ? "quick" : "full");
  bool ok = true;
  try {
    for (const WorkloadDef* def : selected) {
      ok = run_workload(*def, options, baselines) && ok;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcs_bench: %s\n", e.what());
    return 3;
  }
  if (!options.trace.empty() && !g_spans.write_chrome_json(options.trace)) {
    std::fprintf(stderr, "rcs_bench: cannot write %s\n", options.trace.c_str());
    return 3;
  }
  std::printf("\nrcs_bench: %s\n", ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
