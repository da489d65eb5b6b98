// Reproduces the *object* of Figures 4 and 5 — the design-for-adaptation
// reuse argument. Development time (Fig. 4) is a human measurement we cannot
// re-run; its mechanically measurable counterpart is how much NEW code each
// development step required, and how much of every FTM is shared vs specific
// (Fig. 5's SLOC chart). Both are measured from this repository's actual
// sources, located through each component type's registered source_file.
//
// Paper's claims under test:
//   - the design loops (kernel + factorization) dominate the effort;
//   - adding a new mechanism (LFR / TR) costs a small fraction of the first;
//   - assertions and compositions cost (almost) nothing: flag reuse and
//     config entries instead of new bricks.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rcs/app/apps.hpp"
#include "rcs/component/registry.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/registration.hpp"

using namespace rcs;

namespace {

/// Source lines of code: non-blank lines that are not pure comments. A path
/// that does not open ends the bench with a non-zero exit, so a renamed
/// source file cannot read as 0 SLOC and still pass the shape checks.
int sloc_of(const std::string& relative_path) {
  const std::string path = std::string(RCS_SOURCE_ROOT) + "/" + relative_path;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open source file %s\n", path.c_str());
    std::exit(1);
  }
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line.compare(first, 2, "//") == 0) continue;
    ++lines;
  }
  return lines;
}

int files_sloc(const std::vector<std::string>& files) {
  int total = 0;
  for (const auto& file : files) total += sloc_of(file);
  return total;
}

}  // namespace

int main() {
  ftm::register_components();
  app::register_components();
  const auto& registry = comp::ComponentRegistry::instance();

  bench::title("Figure 4 (analogue) — new code required per development step");
  std::printf("development time is a human metric; marginal new SLOC is its\n"
              "mechanical counterpart, measured from this repository\n\n");

  struct Step {
    const char* label;
    std::vector<std::string> files;
    const char* note;
  };
  const std::vector<Step> steps = {
      {"1st design loop: kernel + PBR",
       {"src/ftm/protocol.cpp", "src/ftm/reply_log.cpp",
        "src/ftm/failure_detector.cpp", "src/ftm/brick_sync_before_noop.cpp",
        "src/ftm/brick_proceed_compute.cpp", "src/ftm/brick_sync_after_pbr.cpp"},
       "FaultToleranceProtocol + DuplexProtocol + first FTM"},
      {"LFR",
       {"src/ftm/brick_sync_before_lfr.cpp", "src/ftm/brick_sync_after_lfr.cpp"},
       "only the two variable bricks"},
      {"2nd design loop: factorization",
       {"src/ftm/sync_after_duplex.cpp"},
       "shared duplex-after machinery"},
      {"Time Redundancy",
       {"src/ftm/brick_proceed_tr.cpp", "src/ftm/brick_sync_after_noop.cpp"},
       "one proceed brick (+noop after)"},
      {"Assertion (A&PBR, A&LFR)",
       {},
       "0 new files: with_assertion flag on existing bricks"},
      {"Composition (PBR+TR, LFR+TR)",
       {},
       "0 new files: FtmConfig entries reuse existing bricks"},
  };

  std::printf("%-34s %8s   %s\n", "step", "new SLOC", "what was written");
  bench::rule();
  int first_loop = 0;
  int later_max = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const int sloc = files_sloc(steps[i].files);
    if (i == 0) first_loop = sloc;
    else later_max = std::max(later_max, sloc);
    std::printf("%-34s %8d   %s\n", steps[i].label, sloc, steps[i].note);
  }
  bench::rule();
  bench::shape_check(
      first_loop > 2 * later_max,
      "first design loop is the dominant effort "
      "(paper Fig. 4: 4-5x the per-FTM cost): %V (%.1fx)\n",
      later_max > 0 ? static_cast<double>(first_loop) / later_max : 0.0);

  bench::title("Figure 5 (analogue) — SLOC per pattern element and per FTM");
  std::printf("%-30s %-38s %6s\n", "component type", "source file", "SLOC");
  bench::rule();
  std::map<std::string, int> sloc_by_type;
  std::set<std::string> seen_files;
  for (const auto& type_name : registry.type_names()) {
    const auto& info = registry.info(type_name);
    if (info.source_file.empty()) continue;
    if (info.category != comp::TypeCategory::kBrick &&
        info.category != comp::TypeCategory::kKernel) {
      continue;
    }
    sloc_by_type[type_name] = sloc_of(info.source_file);
    if (seen_files.insert(info.source_file).second) {
      std::printf("%-30s %-38s %6d\n", type_name.c_str(),
                  info.source_file.c_str(), sloc_by_type[type_name]);
    }
  }

  std::printf("\n%-8s %10s %14s %10s\n", "FTM", "brick SLOC", "shared kernel",
              "% specific");
  bench::rule();
  int kernel_sloc = files_sloc({"src/ftm/protocol.cpp", "src/ftm/reply_log.cpp",
                                "src/ftm/failure_detector.cpp"});
  for (const auto& config : ftm::FtmConfig::standard_set()) {
    std::set<std::string> files;  // dedupe: pbr/pbr_assert share a file
    for (const auto& brick : config.brick_types()) {
      files.insert(registry.info(brick).source_file);
    }
    int brick_sloc = 0;
    for (const auto& file : files) brick_sloc += sloc_of(file);
    std::printf("%-8s %10d %14d %9.0f%%\n", config.name.c_str(), brick_sloc,
                kernel_sloc,
                100.0 * brick_sloc / static_cast<double>(brick_sloc + kernel_sloc));
  }
  bench::rule();
  std::printf("every FTM's variable features are a small fraction of the\n"
              "mechanism; the common parts are written once and reused —\n"
              "the basis for cheap differential transitions (§4.3)\n");
  return bench::shape_exit_code();
}
