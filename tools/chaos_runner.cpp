// chaos_runner: seeded chaos campaign sweeps with replay and shrinking.
//
// Default run sweeps N seeds across {PBR, LFR, TR} x {delta checkpointing
// on, off}, plus a set of mid-campaign differential transition seeds, and
// checks every history invariant on every run. On the first failure it
// prints the seed, the configuration, the greedily shrunk minimal fault
// timeline, and the exact command line that replays it — then exits
// non-zero.
//
//   chaos_runner                          # full default sweep (50+20 seeds)
//   chaos_runner --seeds 5                # bounded smoke sweep
//   chaos_runner --replay 17 --ftm LFR --delta off
//   chaos_runner --replay 3 --ftm PBR --delta on --transition-to LFR
//   chaos_runner --demo-shrink            # broken oracle -> shrunk timeline
//   chaos_runner --list-points            # fault-simulation point catalogue
//   chaos_runner --fsim 'ckpt.*'          # restrict fsim to matching points
//   chaos_runner --coverage-sweep         # run until fsim coverage is dry
//
// Every campaign is bit-deterministic in its seed: replaying a reported
// failure reproduces the identical trace, and the shrunk schedule is
// re-validated by replay before it is printed.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "rcs/common/logging.hpp"
#include "rcs/core/chaos_campaign.hpp"
#include "rcs/fsim/fsim.hpp"
#include "runner_common.hpp"

namespace {

using rcs::core::ChaosCampaignOptions;
using rcs::core::ChaosCampaignResult;
namespace fsim = rcs::fsim;

/// The shared run summary plus the merged fsim coverage of every reported
/// campaign. Merged in plan order (report_one), and merge() is
/// order-insensitive anyway, so serial and --jobs sweeps accumulate
/// identical reports.
struct RunSummary : rcs::tools::RunSummary {
  fsim::CoverageReport coverage;

  void add(const ChaosCampaignResult& result) {
    rcs::tools::RunSummary::add(result);
    coverage.merge(result.fsim);
  }
};

struct SweepSpec {
  std::string ftm;
  bool delta;
  std::string transition_to;  // empty: plain campaign
};

struct Args {
  int seeds{50};
  int transition_seeds{20};
  int jobs{1};
  std::uint64_t base_seed{1};
  std::vector<std::string> ftms{"PBR", "LFR", "TR"};
  std::string delta{"both"};  // on | off | both
  bool has_replay{false};
  std::uint64_t replay_seed{0};
  std::string replay_ftm{"PBR"};
  std::string transition_to;
  bool demo_shrink{false};
  bool verbose{false};
  std::string trace_out;    // replay only: Chrome trace JSON destination
  std::string metrics_out;  // replay only: metrics JSON-lines destination
  std::string fsim_glob;    // "": all points; "off": disable; else glob
  std::string coverage_out;  // fsim coverage JSON destination
  bool list_points{false};
  bool coverage_sweep{false};
  bool quick{false};  // coverage sweep: 1 seed per spec per round
};

void usage() {
  std::puts(
      "usage: chaos_runner [--seeds N] [--transitions N] [--base-seed S]\n"
      "                    [--ftm A,B,..] [--delta on|off|both] [--jobs N]\n"
      "                    [--fsim GLOB|off] [--coverage-out FILE]\n"
      "                    [--verbose]\n"
      "       chaos_runner --replay SEED --ftm NAME --delta on|off\n"
      "                    [--transition-to NAME] [--trace-out FILE]\n"
      "                    [--metrics-out FILE] [--coverage-out FILE]\n"
      "       chaos_runner --coverage-sweep [--quick] [--base-seed S]\n"
      "                    [--fsim GLOB] [--coverage-out FILE]\n"
      "       chaos_runner --list-points\n"
      "       chaos_runner --demo-shrink");
}

/// Minimal glob: '*' any run, '?' any one char, everything else literal.
bool glob_match(const char* pattern, const char* text) {
  if (*pattern == '\0') return *text == '\0';
  if (*pattern == '*') {
    return glob_match(pattern + 1, text) ||
           (*text != '\0' && glob_match(pattern, text + 1));
  }
  return *text != '\0' && (*pattern == '?' || *pattern == *text) &&
         glob_match(pattern + 1, text + 1);
}

/// Resolve --fsim into the campaign knobs. Returns false (after printing)
/// when a glob matches no point — a silent no-match would report an empty
/// sweep as clean coverage.
bool resolve_fsim(const Args& args, bool& fsim_on, std::vector<int>& points) {
  fsim_on = true;
  points.clear();
  if (args.fsim_glob.empty()) return true;
  if (args.fsim_glob == "off") {
    fsim_on = false;
    return true;
  }
  for (int i = 0; i < fsim::kPointCount; ++i) {
    const auto p = static_cast<fsim::Point>(i);
    if (glob_match(args.fsim_glob.c_str(), fsim::to_string(p))) {
      points.push_back(i);
    }
  }
  if (points.empty()) {
    std::fprintf(stderr, "--fsim '%s' matches no fault-simulation point\n",
                 args.fsim_glob.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto next_num = [&]<typename T>(T& slot,
                                          std::type_identity_t<T> min) {
      const char* v = next();
      return v != nullptr &&
             rcs::tools::parse_number(arg.c_str(), v, slot, min);
    };
    if (arg == "--seeds") {
      if (!next_num(args.seeds, 0)) return false;
    } else if (arg == "--transitions") {
      if (!next_num(args.transition_seeds, 0)) return false;
    } else if (arg == "--jobs") {
      if (!next_num(args.jobs, 1)) return false;
    } else if (arg == "--base-seed") {
      if (!next_num(args.base_seed, 0)) return false;
    } else if (arg == "--ftm") {
      const char* v = next();
      if (!v) return false;
      args.ftms = split_csv(v);
      args.replay_ftm = args.ftms.empty() ? "PBR" : args.ftms.front();
    } else if (arg == "--delta") {
      const char* v = next();
      if (!v) return false;
      args.delta = v;
    } else if (arg == "--replay") {
      if (!next_num(args.replay_seed, 0)) return false;
      args.has_replay = true;
    } else if (arg == "--transition-to") {
      const char* v = next();
      if (!v) return false;
      args.transition_to = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      args.trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      args.metrics_out = v;
    } else if (arg == "--fsim") {
      const char* v = next();
      if (!v) return false;
      args.fsim_glob = v;
    } else if (arg == "--coverage-out") {
      const char* v = next();
      if (!v) return false;
      args.coverage_out = v;
    } else if (arg == "--list-points") {
      args.list_points = true;
    } else if (arg == "--coverage-sweep") {
      args.coverage_sweep = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--demo-shrink") {
      args.demo_shrink = true;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::string replay_command(const ChaosCampaignOptions& options) {
  std::string cmd = "chaos_runner --replay " + std::to_string(options.seed) +
                    " --ftm " + options.ftm + " --delta " +
                    (options.delta_checkpoint ? "on" : "off");
  if (!options.transition_to.empty()) {
    cmd += " --transition-to " + options.transition_to;
  }
  return cmd;
}

/// Report a failed campaign: verdict, shrunk timeline, replay command.
void report_failure(const ChaosCampaignOptions& options,
                    const ChaosCampaignResult& result) {
  std::printf("\nFAILURE seed=%llu label=%s\n",
              static_cast<unsigned long long>(result.seed),
              result.label.c_str());
  std::printf("%s", result.report.to_string().c_str());
  std::printf("\nshrinking the fault timeline (%zu episode(s))...\n",
              result.schedule.episode_count());
  const auto shrunk = rcs::core::shrink_schedule(options, result.schedule);
  std::printf("minimal failing timeline (%zu episode(s)):\n%s",
              shrunk.episode_count(), shrunk.to_string().c_str());
  std::printf("replay: %s\n", replay_command(options).c_str());
}

/// Account and print one finished campaign; shared by the serial path and
/// the --jobs merge so both emit byte-identical reports.
int report_one(const ChaosCampaignOptions& options,
               const ChaosCampaignResult& result, bool verbose,
               int& campaigns, int& failures, RunSummary& summary) {
  ++campaigns;
  summary.add(result);
  if (verbose || !result.passed) {
    std::printf("  seed=%-4llu %-18s %s (ctr=%lld retries=%llu)\n",
                static_cast<unsigned long long>(options.seed),
                result.label.c_str(), result.passed ? "PASS" : "FAIL",
                static_cast<long long>(result.final_counter),
                static_cast<unsigned long long>(result.client_stats.retries));
  }
  if (!result.passed) {
    ++failures;
    report_failure(options, result);
    return 1;
  }
  return 0;
}

int run_one(const ChaosCampaignOptions& options, bool verbose,
            int& campaigns, int& failures, RunSummary& summary) {
  const auto result = rcs::core::run_campaign(options);
  return report_one(options, result, verbose, campaigns, failures, summary);
}

bool dump_to(const std::string& path, const std::string& data,
             const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(), what);
    return false;
  }
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  return ok;
}

/// Deterministic stdout footer shared by every sweep exit path, so the
/// serial-vs-jobs cmp gate also covers the coverage accounting.
void print_coverage_footer(const RunSummary& summary) {
  std::printf("fsim coverage: %zu pair(s), %llu fire(s)\n",
              summary.coverage.pair_count(),
              static_cast<unsigned long long>(summary.coverage.fire_total()));
  // One line per touched point, in catalogue (enum) order: makes "which
  // points actually fired" legible without parsing the JSON report.
  for (int i = 0; i < fsim::kPointCount; ++i) {
    const auto p = static_cast<fsim::Point>(i);
    const auto hits = summary.coverage.hits_of(p);
    if (hits == 0) continue;
    std::printf("  %-17s hits=%-6llu fires=%llu\n", fsim::to_string(p),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(summary.coverage.fires_of(p)));
  }
}

int run_sweep(const Args& args, RunSummary& summary) {
  std::vector<bool> delta_modes;
  if (args.delta == "on" || args.delta == "both") delta_modes.push_back(true);
  if (args.delta == "off" || args.delta == "both") delta_modes.push_back(false);
  if (delta_modes.empty()) {
    std::fprintf(stderr, "bad --delta value: %s\n", args.delta.c_str());
    return 2;
  }
  bool fsim_on = true;
  std::vector<int> fsim_points;
  if (!resolve_fsim(args, fsim_on, fsim_points)) return 2;

  // The full campaign plan, in canonical (seed) order. --jobs executes it
  // out of order but always reports it in this order, so the output is
  // byte-identical to a serial run.
  std::vector<ChaosCampaignOptions> plan;
  for (int s = 0; s < args.seeds; ++s) {
    for (const auto& ftm : args.ftms) {
      for (const bool delta : delta_modes) {
        ChaosCampaignOptions options;
        options.seed = args.base_seed + static_cast<std::uint64_t>(s);
        options.ftm = ftm;
        options.delta_checkpoint = delta;
        options.fsim = fsim_on;
        options.fsim_points = fsim_points;
        plan.push_back(options);
      }
    }
  }

  // Mid-campaign differential transitions, coverage-intersected chaos.
  static const SweepSpec kTransitions[] = {
      {"PBR", true, "LFR"},
      {"LFR", true, "PBR"},
      {"PBR", false, "PBR_TR"},
  };
  const std::size_t transition_start = plan.size();
  for (int s = 0; s < args.transition_seeds; ++s) {
    const auto& spec = kTransitions[static_cast<std::size_t>(s) %
                                    std::size(kTransitions)];
    ChaosCampaignOptions options;
    options.seed = args.base_seed + 1000 + static_cast<std::uint64_t>(s);
    options.ftm = spec.ftm;
    options.delta_checkpoint = spec.delta;
    options.transition_to = spec.transition_to;
    options.fsim = fsim_on;
    options.fsim_points = fsim_points;
    plan.push_back(options);
  }

  int campaigns = 0;
  int failures = 0;
  const auto print_transition_header = [&] {
    if (args.transition_seeds > 0) {
      std::printf("transition sweep: %d seed(s) x %zu transition(s)\n",
                  args.transition_seeds, std::size(kTransitions));
    }
  };

  std::printf("chaos sweep: %d seed(s) x {", args.seeds);
  for (std::size_t i = 0; i < args.ftms.size(); ++i) {
    std::printf("%s%s", i ? "," : "", args.ftms[i].c_str());
  }
  std::printf("} x {%s}\n", args.delta.c_str());

  if (args.jobs <= 1) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (i == transition_start) print_transition_header();
      if (run_one(plan[i], args.verbose, campaigns, failures, summary)) {
        std::printf("\n%d campaign(s), %d failure(s)\n", campaigns,
                    failures);
        print_coverage_footer(summary);
        return 1;
      }
    }
    if (plan.size() == transition_start) print_transition_header();
    std::printf("\n%d campaign(s), %d failure(s) — all invariants held\n",
                campaigns, failures);
    print_coverage_footer(summary);
    if (!args.coverage_out.empty() &&
        !dump_to(args.coverage_out, summary.coverage.to_json(), "coverage")) {
      return 2;
    }
    return 0;
  }

  // Parallel execution: one Simulation per worker thread (campaigns are
  // independent and each owns its whole world), results merged in plan
  // order. A failing serial sweep stops at the first failure; here the
  // later campaigns have already run, but the report still cuts off at the
  // first failure in canonical order, so the two modes print the same
  // bytes either way.
  std::vector<ChaosCampaignResult> results(plan.size());
  std::vector<std::string> errors(plan.size());
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= plan.size()) return;
      try {
        results[i] = rcs::core::run_campaign(plan[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> workers;
  const auto worker_count = std::min<std::size_t>(
      static_cast<std::size_t>(args.jobs), std::max<std::size_t>(plan.size(), 1));
  workers.reserve(worker_count);
  for (std::size_t j = 0; j < worker_count; ++j) workers.emplace_back(worker);
  for (auto& thread : workers) thread.join();

  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i == transition_start) print_transition_header();
    if (!errors[i].empty()) {
      std::fprintf(stderr, "campaign seed=%llu died: %s\n",
                   static_cast<unsigned long long>(plan[i].seed),
                   errors[i].c_str());
      return 2;
    }
    if (report_one(plan[i], results[i], args.verbose, campaigns, failures,
                   summary)) {
      std::printf("\n%d campaign(s), %d failure(s)\n", campaigns, failures);
      print_coverage_footer(summary);
      return 1;
    }
  }
  if (plan.size() == transition_start) print_transition_header();
  std::printf("\n%d campaign(s), %d failure(s) — all invariants held\n",
              campaigns, failures);
  print_coverage_footer(summary);
  if (!args.coverage_out.empty() &&
      !dump_to(args.coverage_out, summary.coverage.to_json(), "coverage")) {
    return 2;
  }
  return 0;
}

int run_replay(const Args& args, RunSummary& summary) {
  ChaosCampaignOptions options;
  options.seed = args.replay_seed;
  options.ftm = args.replay_ftm;
  options.delta_checkpoint = args.delta != "off";
  options.transition_to = args.transition_to;
  options.record_trace = !args.trace_out.empty() || !args.metrics_out.empty();
  if (!resolve_fsim(args, options.fsim, options.fsim_points)) return 2;
  const auto result = rcs::core::run_campaign(options);
  summary.add(result);
  std::printf("%s", result.trace.c_str());
  if (!args.trace_out.empty() &&
      !dump_to(args.trace_out, result.trace_json, "trace")) {
    return 2;
  }
  if (!args.metrics_out.empty() &&
      !dump_to(args.metrics_out, result.metrics_json, "metrics")) {
    return 2;
  }
  if (!args.coverage_out.empty() &&
      !dump_to(args.coverage_out, result.fsim.to_json(), "coverage")) {
    return 2;
  }
  if (!result.passed) {
    report_failure(options, result);
    return 1;
  }
  return 0;
}

/// --list-points: the compiled-in fault-simulation catalogue as JSON, one
/// point per line, name-sorted. Counters are zero here (no campaign ran);
/// the sweeps report live tallies through the coverage JSON instead.
int run_list_points() {
  std::vector<const fsim::PointDef*> defs;
  for (int i = 0; i < fsim::kPointCount; ++i) {
    defs.push_back(&fsim::point_def(static_cast<fsim::Point>(i)));
  }
  std::sort(defs.begin(), defs.end(),
            [](const fsim::PointDef* x, const fsim::PointDef* y) {
              return std::strcmp(x->name, y->name) < 0;
            });
  std::printf("{\"points\":[\n");
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("  {\"name\":\"%s\",\"params\":\"%s\",\"description\":\"%s\","
                "\"hits\":0,\"fires\":0}%s\n",
                defs[i]->name, defs[i]->params, defs[i]->description,
                i + 1 < defs.size() ? "," : "");
  }
  std::printf("]}\n");
  return 0;
}

/// --coverage-sweep: run rounds of campaigns across every FTM/transition
/// spec until 3 consecutive rounds add no new (point, state) pair — the
/// coverage fixed point. Fully seeded, so two runs print identical bytes.
int run_coverage_sweep(const Args& args, RunSummary& summary) {
  bool fsim_on = true;
  std::vector<int> fsim_points;
  if (!resolve_fsim(args, fsim_on, fsim_points)) return 2;
  if (!fsim_on) {
    std::fprintf(stderr, "--coverage-sweep needs fault simulation enabled\n");
    return 2;
  }
  static const SweepSpec kSpecs[] = {
      {"PBR", true, ""},  {"PBR", false, ""},      {"LFR", true, ""},
      {"LFR", false, ""}, {"TR", true, ""},        {"TR", false, ""},
      {"PBR", true, "LFR"}, {"LFR", true, "PBR"},  {"PBR", false, "PBR_TR"},
  };
  const int per_spec = args.quick ? 1 : 3;
  constexpr int kDryRounds = 3;
  constexpr int kMaxRounds = 40;

  std::printf("fsim coverage sweep: %zu spec(s) x %d seed(s) per round, "
              "stopping after %d dry round(s)\n",
              std::size(kSpecs), per_spec, kDryRounds);
  fsim::CoverageReport total;
  std::uint64_t seed = args.base_seed;
  int campaigns = 0;
  int rounds = 0;
  int dry = 0;
  while (dry < kDryRounds && rounds < kMaxRounds) {
    ++rounds;
    const std::size_t before = total.pair_count();
    for (const auto& spec : kSpecs) {
      for (int k = 0; k < per_spec; ++k) {
        ChaosCampaignOptions options;
        options.seed = seed++;
        options.ftm = spec.ftm;
        options.delta_checkpoint = spec.delta;
        options.transition_to = spec.transition_to;
        options.fsim_points = fsim_points;
        const auto result = rcs::core::run_campaign(options);
        ++campaigns;
        summary.add(result);
        total.merge(result.fsim);
        if (!result.passed) {
          report_failure(options, result);
          return 1;
        }
      }
    }
    const std::size_t gained = total.pair_count() - before;
    std::printf("round %d: %d campaign(s), %zu new pair(s), %zu total\n",
                rounds, static_cast<int>(std::size(kSpecs)) * per_spec, gained,
                total.pair_count());
    dry = gained == 0 ? dry + 1 : 0;
  }
  std::printf("\ncoverage fixed point after %d round(s): %zu pair(s), "
              "%llu fire(s) over %d campaign(s)\n",
              rounds, total.pair_count(),
              static_cast<unsigned long long>(total.fire_total()), campaigns);
  std::printf("%s", total.to_json().c_str());
  if (!args.coverage_out.empty() &&
      !dump_to(args.coverage_out, total.to_json(), "coverage")) {
    return 2;
  }
  return 0;
}

int run_demo_shrink(const Args& args) {
  // Intentionally broken oracle: any retransmission counts as a violation.
  // Chaos makes retries inevitable, so the campaign fails and the shrinker
  // demonstrably reduces the timeline to (usually) a single episode.
  ChaosCampaignOptions options;
  options.seed = args.base_seed;
  options.ftm = args.ftms.empty() ? "PBR" : args.ftms.front();
  options.forbid_retries = true;
  std::printf("demo: oracle forbids retries; chaos must violate it\n");
  const auto result = rcs::core::run_campaign(options);
  if (result.passed) {
    std::printf("unexpected PASS — no retries under seed %llu; "
                "try another --base-seed\n",
                static_cast<unsigned long long>(options.seed));
    return 1;
  }
  report_failure(options, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  rcs::log().set_level(args.verbose ? rcs::LogLevel::kInfo
                                    : rcs::LogLevel::kWarn);
  if (args.verbose) rcs::log().set_stderr_level(rcs::LogLevel::kInfo);
  if (args.list_points) return run_list_points();
  if (args.demo_shrink) return run_demo_shrink(args);
  RunSummary summary;
  const int rc = args.coverage_sweep ? run_coverage_sweep(args, summary)
                 : args.has_replay  ? run_replay(args, summary)
                                    : run_sweep(args, summary);
  summary.print();
  return rc;
}
