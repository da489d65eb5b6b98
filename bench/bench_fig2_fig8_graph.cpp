// Reproduces Figure 2 (transitions between FTMs) and Figure 8 (extended
// graph of transition scenarios): prints both graphs, cross-validates every
// edge against the capability/viability model, and summarizes the §5.4
// analyses (mandatory vs possible, probe vs manager detection, reactive vs
// proactive, oscillation avoidance).
#include <cstdio>

#include "bench_util.hpp"
#include "rcs/app/apps.hpp"
#include "rcs/core/transition_graph.hpp"
#include "rcs/ftm/registration.hpp"

using namespace rcs;
using namespace rcs::core;

int main() {
  ftm::register_components();
  app::register_components();

  bench::title("Figure 2 — transitions between FTMs");
  const auto figure2 = TransitionGraph::figure2();
  std::printf("%s\n", figure2.render().c_str());
  const auto problems2 = figure2.validate_against_model();

  bench::title("Figure 8 — extended graph of transition scenarios");
  const auto figure8 = TransitionGraph::figure8();
  std::printf("%s\n", figure8.render().c_str());
  const auto problems8 = figure8.validate_against_model();

  bench::title("Section 5.4 analyses");
  int mandatory = 0, possible = 0, intra = 0, probe = 0, manager = 0,
      proactive = 0;
  for (const auto& edge : figure8.edges()) {
    if (edge.kind == EdgeKind::kMandatory) ++mandatory;
    if (edge.kind == EdgeKind::kPossible) ++possible;
    if (edge.kind == EdgeKind::kIntra) ++intra;
    if (edge.detection == EdgeDetection::kProbe) ++probe;
    if (edge.detection == EdgeDetection::kManager) ++manager;
    if (edge.nature == EdgeNature::kProactive) ++proactive;
  }
  std::printf("edges: %d mandatory, %d possible, %d intra-FTM\n", mandatory,
              possible, intra);
  std::printf("detection: %d by probes (R variations), %d by the system "
              "manager (A and FT variations)\n",
              probe, manager);
  std::printf("nature: %d proactive (all FT-driven), %zu reactive\n", proactive,
              figure8.edges().size() - proactive);

  // Oscillation avoidance: no mandatory edge has a mandatory reverse.
  bool oscillation_free = true;
  for (const auto& e : figure8.edges()) {
    if (e.kind != EdgeKind::kMandatory) continue;
    for (const auto& r : figure8.edges()) {
      if (r.from == e.to && r.to == e.from && r.kind == EdgeKind::kMandatory) {
        oscillation_free = false;
      }
    }
  }

  bench::rule();
  std::printf("MODEL CHECK: Figure 2 consistent with capability model: %s\n",
              problems2.empty() ? "PASS" : "FAIL");
  for (const auto& p : problems2) std::printf("  !! %s\n", p.c_str());
  std::printf("MODEL CHECK: Figure 8 consistent with capability model: %s\n",
              problems8.empty() ? "PASS" : "FAIL");
  for (const auto& p : problems8) std::printf("  !! %s\n", p.c_str());
  bench::shape_check(oscillation_free,
                     "the reverse of a mandatory transition is never "
                     "mandatory (no oscillation): %V\n");
  return problems2.empty() && problems8.empty() ? bench::shape_exit_code() : 1;
}
