// Wall-clock micro-benchmarks of the REAL reconfiguration machinery
// (google-benchmark). The paper's milliseconds come from FraSCAti/OSGi on a
// JVM; our C++ component model performs the same operations in microseconds.
// These numbers are the honest wall-clock cost of this implementation; the
// virtual CostModel (see cost_model.hpp) exists only to reproduce the
// paper's *shape* on top of them.
#include <benchmark/benchmark.h>

#include "rcs/app/apps.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/component/package.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/ftm/registration.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/script/interpreter.hpp"
#include "rcs/script/parser.hpp"

using namespace rcs;

namespace {

void setup() {
  ftm::register_components();
  app::register_components();
}

/// Deploy a full PBR composite (7 components, wires, properties, starts).
void BM_DeployFullFtmComposite(benchmark::State& state) {
  setup();
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const std::string source = builder.deployment_script(
      ftm::FtmConfig::pbr(), app::spec_for("app.kvstore"));
  const auto script = script::parse(source);
  Value bindings = Value::map();
  bindings.set("role", "primary").set("peers", Value::list()).set("master", -1);
  for (auto _ : state) {
    comp::Composite composite("bench");
    benchmark::DoNotOptimize(
        script::Interpreter::run(script, composite, bindings));
  }
}
BENCHMARK(BM_DeployFullFtmComposite);

/// The paper's PBR -> LFR differential transition, end to end (parse once).
void BM_DifferentialTransitionScript(benchmark::State& state) {
  setup();
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const auto app = app::spec_for("app.kvstore");
  const auto deploy = script::parse(builder.deployment_script(
      ftm::FtmConfig::pbr(), app));
  const auto transition = script::parse(builder.transition_script(
      ftm::FtmConfig::pbr(), ftm::FtmConfig::lfr(), app));
  const auto back = script::parse(builder.transition_script(
      ftm::FtmConfig::lfr(), ftm::FtmConfig::pbr(), app));
  Value bindings = Value::map();
  bindings.set("role", "primary").set("peers", Value::list()).set("master", -1);
  comp::Composite composite("bench");
  script::Interpreter::run(deploy, composite, bindings);
  bool forward = true;
  for (auto _ : state) {
    script::Interpreter::run(forward ? transition : back, composite);
    forward = !forward;
  }
}
BENCHMARK(BM_DifferentialTransitionScript);

void BM_ScriptParseTransition(benchmark::State& state) {
  setup();
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const std::string source = builder.transition_script(
      ftm::FtmConfig::pbr(), ftm::FtmConfig::lfr_tr(),
      app::spec_for("app.kvstore"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(script::parse(source));
  }
}
BENCHMARK(BM_ScriptParseTransition);

/// Failed transaction: full execution then rollback (all-or-nothing cost).
void BM_ScriptRollback(benchmark::State& state) {
  setup();
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const auto app = app::spec_for("app.kvstore");
  comp::Composite composite("bench");
  Value bindings = Value::map();
  bindings.set("role", "primary").set("peers", Value::list()).set("master", -1);
  script::Interpreter::run(
      script::parse(builder.deployment_script(ftm::FtmConfig::pbr(), app)),
      composite, bindings);
  std::string source =
      builder.transition_script(ftm::FtmConfig::pbr(), ftm::FtmConfig::lfr(), app);
  source.insert(source.rfind('}'), "require false; // forced failure\n");
  const auto script = script::parse(source);
  for (auto _ : state) {
    try {
      script::Interpreter::run(script, composite);
    } catch (const ScriptException&) {
      // expected: rolled back
    }
  }
}
BENCHMARK(BM_ScriptRollback);

void BM_ComponentAddWireStartStopRemove(benchmark::State& state) {
  setup();
  comp::Composite composite("bench");
  composite.add(ftm::kernel::kProtocol, "proto");
  int i = 0;
  for (auto _ : state) {
    const std::string name = "fd" + std::to_string(i++);
    composite.add(ftm::kernel::kFailureDetector, name);
    composite.wire(name, "control", "proto", "control");
    composite.unwire(name, "control");
    composite.remove(name);
  }
}
BENCHMARK(BM_ComponentAddWireStartStopRemove);

/// One call of the application through its rcs.Server face, as a proceed
/// brick makes it: the kv store's `process` (here hostless, so no CPU
/// charge), resolved once as the composite resolves a wire. Components call
/// each other only through such faces.
void BM_ServerProcess(benchmark::State& state) {
  setup();
  comp::Composite composite("bench");
  composite.add(app::kKvStore, "server");
  composite.start("server");
  auto& server = dynamic_cast<ftm::Server&>(composite.child("server"));
  const Value request = Value::map().set("op", "get").set("key", "k");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.process(request));
  }
}
BENCHMARK(BM_ServerProcess);

void BM_ValueEncodeDecodeCheckpoint(benchmark::State& state) {
  Value checkpoint = Value::map();
  Value entries = Value::map();
  for (int i = 0; i < 32; ++i) {
    entries.set("key" + std::to_string(i), Value(std::int64_t{i}));
  }
  checkpoint.set("entries", entries).set("filler", Value(Bytes(4096, 0x5A)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Value::decode(checkpoint.encode()));
  }
}
BENCHMARK(BM_ValueEncodeDecodeCheckpoint);

void BM_TransitionPackageEncode(benchmark::State& state) {
  setup();
  const auto& registry = comp::ComponentRegistry::instance();
  comp::ComponentPackage package("bench");
  for (const auto& brick :
       ftm::ScriptBuilder::transition_new_types(ftm::FtmConfig::pbr(),
                                                ftm::FtmConfig::lfr_tr())) {
    package.add_type(registry, brick);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp::ComponentPackage::decode(package.encode()));
  }
}
BENCHMARK(BM_TransitionPackageEncode);

}  // namespace

// Wall-clock wrapper: unlike the other bench binaries these numbers are REAL
// nanoseconds of this C++ implementation, not virtual time.
BENCHMARK_MAIN();
