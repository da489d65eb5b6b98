// Reproduces Table 1: "(FT, A, R) parameters of considered FTMs" — twice:
//   1. derived mechanically from the architecture (capability model);
//   2. verified EMPIRICALLY by deploying every FTM and injecting each fault
//      class: "tolerated" means the client kept receiving correct
//      (checksum-clean) replies.
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/app/app_base.hpp"
#include "rcs/core/capability.hpp"
#include "rcs/core/system.hpp"

using namespace rcs;

namespace {

const char* mark(bool v) { return v ? "yes" : "-"; }

Value kv_incr() {
  return Value::map().set("op", "incr").set("key", "k").set("by", 1);
}

/// Deploy `config`, inject `fault`, send requests; tolerated = every reply
/// arrives, carries a valid checksum, AND is semantically correct.
bool tolerated(const ftm::FtmConfig& config, const std::string& fault,
               std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  core::ResilientSystem system(options);
  (void)system.deploy_and_wait(config);
  (void)system.roundtrip(kv_incr());  // warm-up, pre-fault

  if (fault == "crash") {
    system.replica(0).crash();
  } else if (fault == "permanent") {
    system.replica(0).faults().permanent = true;
  } else if (fault == "software") {
    for (std::size_t i = 0; i < 2; ++i) {
      if (!system.replica(i).alive() || !system.agent(i).runtime().deployed())
        continue;
      system.agent(i).runtime().composite().set_property("server",
                                                         "primary_bug",
                                                         Value(true));
    }
  }

  std::int64_t expected = 1;  // the warm-up incremented once
  for (int i = 0; i < 3; ++i) {
    if (fault == "transient") {
      // One transient fault per request: the next computation on the
      // primary is corrupted once (TR's fault model, §3.2.1).
      system.replica(0).faults().transient_pending = 1;
    }
    Value reply;
    bool got = false;
    system.client().send(kv_incr(), [&](const Value& r) {
      reply = r;
      got = true;
    });
    system.sim().run_for(30 * sim::kSecond);
    ++expected;
    if (!got || reply.has("error")) return false;
    if (!app::AppServerBase::checksum_ok(reply.at("result"))) return false;
    // Semantic correctness, not just integrity: development faults produce
    // wrong-but-checksummed results.
    if (reply.at("result").at("value").as_int() != expected) return false;
  }
  return true;
}

}  // namespace

int main() {
  const auto app = app::spec_for("app.kvstore");

  bench::title("Table 1 — (FT, A, R) parameters of the considered FTMs");
  std::printf("derived from the component architecture "
              "(src/core/capability.cpp)\n\n");
  std::printf("%-28s", "Characteristics");
  for (const auto& config : ftm::FtmConfig::standard_set()) {
    std::printf("%8s", config.name.c_str());
  }
  std::printf("\n");
  bench::rule();

  const auto row = [&](const char* label, auto getter) {
    std::printf("%-28s", label);
    for (const auto& config : ftm::FtmConfig::standard_set()) {
      std::printf("%8s", getter(core::capability_of(config, app)));
    }
    std::printf("\n");
  };
  std::printf("Fault model (FT)\n");
  row("  crash", [](const core::Capability& c) { return mark(c.coverage.crash); });
  row("  transient value",
      [](const core::Capability& c) { return mark(c.coverage.transient_value); });
  row("  permanent value",
      [](const core::Capability& c) { return mark(c.coverage.permanent_value); });
  row("  development (software)",
      [](const core::Capability& c) { return mark(c.coverage.development); });
  std::printf("Application characteristics (A)\n");
  row("  deterministic ok", [](const core::Capability&) { return "yes"; });
  row("  non-deterministic ok",
      [](const core::Capability& c) { return mark(!c.requires_determinism); });
  row("  requires state access", [](const core::Capability& c) {
    return mark(c.needs_state_when_stateful);
  });
  row("  requires assertion",
      [](const core::Capability& c) { return mark(c.requires_assertion); });
  std::printf("Resources (R)\n");
  row("  bandwidth",
      [](const core::Capability& c) { return c.bandwidth_class(); });
  row("  cpu", [](const core::Capability& c) { return c.cpu_class(); });

  bench::title("Empirical verification — fault injection per FTM");
  std::printf("each cell: deploy, inject, 3 requests; 'yes' = all replies "
              "correct (checksum-verified)\n\n");
  std::printf("%-28s", "Injected fault");
  for (const auto& config : ftm::FtmConfig::standard_set()) {
    std::printf("%8s", config.name.c_str());
  }
  std::printf("\n");
  bench::rule();

  int mismatches = 0;
  std::uint64_t seed = 100;
  for (const char* fault : {"crash", "transient", "permanent", "software"}) {
    std::printf("  %-26s", fault);
    for (const auto& config : ftm::FtmConfig::standard_set()) {
      const bool observed = tolerated(config, fault, seed++);
      const auto cap = core::capability_of(config, app);
      const std::string f(fault);
      const bool predicted = f == "crash"       ? cap.coverage.crash
                             : f == "transient" ? cap.coverage.transient_value
                             : f == "permanent" ? cap.coverage.permanent_value
                                                : cap.coverage.development;
      if (observed != predicted) ++mismatches;
      std::printf("%8s", observed ? "yes" : "-");
    }
    std::printf("\n");
  }
  bench::rule();
  bench::shape_check(mismatches == 0,
                     "empirical tolerance matches the derived Table 1: "
                     "%V (%d mismatches)\n",
                     mismatches);
  return bench::shape_exit_code();
}
