// gateway_runner: the real-socket edge over the deterministic core.
//
//   gateway_runner                                # live: HTTP on :8080, 1x speed
//   gateway_runner --port 0 --port-file p.txt     # ephemeral port for CI
//   gateway_runner --speed 4 --fleet 30 --rps 150 # background load, 4x time
//
// The runner builds a ResilientSystem (PBR over 2 replicas), bridges it to a
// TCP listener through the gateway command queue, and paces virtual time
// against the wall clock. External clients (curl, the browser console at /)
// inject real requests into the simulation at quantum boundaries; a
// WebSocket stream at /ws publishes status + metrics frames. SIGINT/SIGTERM
// stop the pacing loop, drain the server, and exit 0.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "rcs/common/logging.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/gateway/bridge.hpp"
#include "rcs/gateway/server.hpp"
#include "rcs/load/arrival.hpp"
#include "rcs/load/fleet.hpp"
#include "runner_common.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

struct Args {
  std::uint64_t seed{1};
  std::string bind{"127.0.0.1"};
  int port{8080};
  std::string port_file;
  double speed{1.0};
  double duration_s{0.0};  // virtual horizon; 0 = run until signal
  std::size_t fleet{0};    // background fleet clients; 0 = external only
  double rps{150.0};       // aggregate fleet offered load
  std::string console{"tools/console/index.html"};
  int workers{4};
  double quantum_ms{20.0};
  double snapshot_ms{500.0};
  bool verbose{false};
};

constexpr const char* kUsage =
    "usage: gateway_runner [--bind ADDR] [--port N] [--port-file FILE]\n"
    "                      [--speed X] [--duration SEC] [--seed S]\n"
    "                      [--fleet N] [--rps R] [--console FILE]\n"
    "                      [--workers N] [--quantum-ms MS]\n"
    "                      [--snapshot-ms MS] [--verbose]";

bool parse_args(int argc, char** argv, Args& args) {
  using rcs::tools::Flag;
  using rcs::tools::kPositive;
  const Flag flags[] = {
      {"--seed", &args.seed, 0},
      {"--bind", &args.bind},
      {"--port", &args.port, 0},
      {"--port-file", &args.port_file},
      {"--speed", &args.speed, 0.0},
      {"--duration", &args.duration_s, 0.0},
      {"--fleet", &args.fleet, 0},
      {"--rps", &args.rps, kPositive},
      {"--console", &args.console},
      {"--workers", &args.workers, 1},
      {"--quantum-ms", &args.quantum_ms, kPositive},
      {"--snapshot-ms", &args.snapshot_ms, kPositive},
      {"--verbose", &args.verbose},
  };
  return rcs::tools::parse_flags(argc, argv, flags, kUsage);
}

int run_live(const Args& args) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  rcs::core::SystemOptions sys;
  sys.seed = args.seed;
  rcs::core::ResilientSystem system(sys);
  system.deploy_and_wait(rcs::ftm::FtmConfig::pbr());

  rcs::gateway::BridgeOptions bridge_options;
  bridge_options.speed = args.speed;
  bridge_options.quantum = static_cast<rcs::sim::Duration>(
      args.quantum_ms * rcs::sim::kMillisecond);
  bridge_options.snapshot_every = static_cast<rcs::sim::Duration>(
      args.snapshot_ms * rcs::sim::kMillisecond);
  rcs::gateway::SimBridge bridge(system, bridge_options);
  bridge.watch_stop_flag(&g_stop);

  // Optional background fleet so the console has traffic to show even with
  // no external clients; it shares the replicas with gateway requests.
  std::unique_ptr<rcs::load::ClientFleet> fleet;
  if (args.fleet > 0) {
    rcs::load::FleetOptions fleet_options;
    fleet_options.clients = args.fleet;
    fleet_options.seed = args.seed;
    fleet_options.client.max_attempts = 16;
    fleet = std::make_unique<rcs::load::ClientFleet>(
        system, fleet_options,
        rcs::load::make_process(
            "open", args.rps / static_cast<double>(args.fleet)));
    bridge.attach_fleet(fleet.get());
    fleet->start();
  }

  rcs::gateway::ServerOptions server_options;
  server_options.bind = args.bind;
  server_options.port = args.port;
  server_options.workers = args.workers;
  server_options.console_path = args.console;
  rcs::gateway::GatewayServer server(bridge, server_options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "gateway: %s\n", error.c_str());
    return 2;
  }
  bridge.set_publisher(
      [&server](const std::string& frame) { server.publish(frame); });

  if (!args.port_file.empty() &&
      !rcs::tools::write_file(args.port_file,
                              std::to_string(server.port()) + "\n",
                              "port file")) {
    server.stop();
    return 2;
  }
  std::fprintf(stderr,
               "gateway: listening on http://%s:%d (speed %.2gx, "
               "quantum %.0f ms, fleet %zu)\n",
               args.bind.c_str(), server.port(), args.speed, args.quantum_ms,
               args.fleet);

  const rcs::sim::Time until =
      args.duration_s > 0.0
          ? system.sim().now() + static_cast<rcs::sim::Duration>(
                                     args.duration_s * rcs::sim::kSecond)
          : 0;
  const std::uint64_t events = bridge.run(until);

  server.stop();
  std::fprintf(stderr,
               "gateway: stopped at sim t=%.3fs, %llu events, "
               "%llu requests served, %llu injected\n",
               static_cast<double>(system.sim().now()) /
                   static_cast<double>(rcs::sim::kSecond),
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(server.requests_served()),
               static_cast<unsigned long long>(bridge.injected_total()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  rcs::log().set_level(args.verbose ? rcs::LogLevel::kInfo
                                    : rcs::LogLevel::kWarn);
  if (args.verbose) rcs::log().set_stderr_level(rcs::LogLevel::kInfo);
  return run_live(args);
}
