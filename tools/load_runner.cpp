// load_runner: capacity sweeps and the adaptation-under-load scenario.
//
//   load_runner                                   # default PBR sweep
//   load_runner --ftm LFR --delta off --steps 10 --out curve.jsonl
//   load_runner --bandwidth 1e6 --cpu-speed 0.5   # move the knee, watch it
//   load_runner --scenario adapt --trace-out t.json --metrics-out m.jsonl
//
// Sweep mode ramps offered load and emits one JSON line per measured point
// (stdout, plus --out FILE); the trailing line reports the detected knee.
// Scenario mode runs the closed monitoring->adaptation loop under fleet
// traffic and exits non-zero if any invariant is violated. Both modes are
// bit-deterministic in --seed: the same command line yields byte-identical
// output, which CI exploits with a cmp gate.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "rcs/common/logging.hpp"
#include "rcs/load/scenario.hpp"
#include "rcs/load/sweep.hpp"
#include "runner_common.hpp"

namespace {

using rcs::tools::RunSummary;
using rcs::tools::write_file;

struct Args {
  std::string scenario;  // empty: sweep mode
  std::uint64_t seed{1};
  std::string ftm{"PBR"};
  std::string delta{"on"};
  std::string arrival{"open"};
  // Unset: each mode keeps its own options struct's default.
  std::optional<std::size_t> clients;
  double rps_from{20.0};
  double rps_to{240.0};
  double rps{150.0};  // scenario offered load
  int steps{8};
  double warmup_s{2.0};
  double window_s{6.0};
  std::optional<double> bandwidth_bps;
  double cpu_speed{1.0};
  std::string out;
  std::string trace_out;
  std::string metrics_out;
  bool verbose{false};
};

constexpr const char* kUsage =
    "usage: load_runner [--seed S] [--ftm NAME] [--delta on|off]\n"
    "                   [--arrival open|closed|bursty] [--clients N]\n"
    "                   [--rps-from R] [--rps-to R] [--steps N]\n"
    "                   [--warmup SEC] [--window SEC] [--bandwidth BPS]\n"
    "                   [--cpu-speed X] [--out FILE] [--verbose]\n"
    "       load_runner --scenario adapt [--seed S] [--clients N]\n"
    "                   [--rps R] [--bandwidth BPS]\n"
    "                   [--trace-out FILE] [--metrics-out FILE]";

bool parse_args(int argc, char** argv, Args& args) {
  using rcs::tools::Flag;
  using rcs::tools::kPositive;
  const Flag flags[] = {
      {"--scenario", &args.scenario},
      {"--seed", &args.seed, 0},
      {"--ftm", &args.ftm},
      {"--delta", &args.delta, {"on", "off"}},
      {"--arrival", &args.arrival},
      {"--clients", &args.clients, 1},
      {"--steps", &args.steps, 1},
      {"--rps-from", &args.rps_from, kPositive},
      {"--rps-to", &args.rps_to, kPositive},
      {"--rps", &args.rps, kPositive},
      {"--warmup", &args.warmup_s, 0.0},
      {"--window", &args.window_s, kPositive},
      {"--bandwidth", &args.bandwidth_bps, kPositive},
      {"--cpu-speed", &args.cpu_speed, kPositive},
      {"--out", &args.out},
      {"--trace-out", &args.trace_out},
      {"--metrics-out", &args.metrics_out},
      {"--verbose", &args.verbose},
  };
  return rcs::tools::parse_flags(argc, argv, flags, kUsage);
}

int run_sweep_mode(const Args& args, RunSummary& summary) {
  rcs::load::SweepOptions options;
  options.seed = args.seed;
  options.ftm = args.ftm;
  options.delta_checkpoint = args.delta == "on";
  options.arrival = args.arrival;
  if (args.clients) options.clients = *args.clients;
  options.rps_from = args.rps_from;
  options.rps_to = args.rps_to;
  options.steps = args.steps;
  options.warmup =
      static_cast<rcs::sim::Duration>(args.warmup_s * rcs::sim::kSecond);
  options.window =
      static_cast<rcs::sim::Duration>(args.window_s * rcs::sim::kSecond);
  if (args.bandwidth_bps) options.replica_bandwidth_bps = *args.bandwidth_bps;
  options.cpu_speed = args.cpu_speed;

  std::fprintf(stderr,
               "sweep: %s/%s %zu client(s) %s arrivals, %.0f..%.0f rps in %d "
               "step(s), bw=%.0f Bps cpu=%.2fx\n",
               options.ftm.c_str(), options.delta_checkpoint ? "delta" : "full",
               options.clients, options.arrival.c_str(), options.rps_from,
               options.rps_to, options.steps, options.replica_bandwidth_bps,
               options.cpu_speed);
  const auto result = rcs::load::run_sweep(options);
  summary.add(result);
  const std::string json = result.to_json_lines();
  std::fputs(json.c_str(), stdout);
  if (!args.out.empty() && !write_file(args.out, json, "sweep curve")) return 2;
  if (result.knee_index >= 0) {
    std::fprintf(stderr, "knee at step %d (offered %.1f rps)\n",
                 result.knee_index, result.knee_offered_rps());
  } else {
    std::fprintf(stderr, "no knee found in the ramp\n");
  }
  return 0;
}

int run_scenario_mode(const Args& args, RunSummary& summary) {
  if (args.scenario != "adapt") {
    std::fprintf(stderr, "unknown scenario: %s\n", args.scenario.c_str());
    return 2;
  }
  rcs::load::AdaptScenarioOptions options;
  options.seed = args.seed;
  if (args.clients) options.clients = *args.clients;
  options.offered_rps = args.rps;
  if (args.bandwidth_bps) options.replica_bandwidth_bps = *args.bandwidth_bps;
  options.record_trace = !args.trace_out.empty() || !args.metrics_out.empty();
  const auto result = rcs::load::run_adapt_scenario(options);
  summary.add(result);
  std::fputs(result.trace.c_str(), stdout);
  if (!args.trace_out.empty() &&
      !write_file(args.trace_out, result.trace_json, "trace")) {
    return 2;
  }
  if (!args.metrics_out.empty() &&
      !write_file(args.metrics_out, result.metrics_json, "metrics")) {
    return 2;
  }
  return result.passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  rcs::log().set_level(args.verbose ? rcs::LogLevel::kInfo
                                    : rcs::LogLevel::kWarn);
  if (args.verbose) rcs::log().set_stderr_level(rcs::LogLevel::kInfo);
  RunSummary summary;
  const int rc = args.scenario.empty() ? run_sweep_mode(args, summary)
                                       : run_scenario_mode(args, summary);
  summary.print();
  return rc;
}
