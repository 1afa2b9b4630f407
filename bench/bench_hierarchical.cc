// §VII extension ablation: flat SQPR vs the hierarchical (site-based)
// planner as the cluster grows. The paper proposes the decomposition to
// fix the Fig. 6(a) blow-up of planning time in the number of hosts;
// this bench regenerates that trade-off: hierarchical planning time
// stays near-flat in H while admissions pay a bounded price for the
// restricted placement freedom.
//
// Both planners stop each solve after kMaxNodes branch-and-bound nodes;
// the wall-clock timeout sits far above any solve, so the admission
// columns do not depend on host speed or load (the ms columns do).

#include <vector>

#include "bench/bench_util.h"
#include "planner/hierarchical/hierarchical_planner.h"
#include "planner/sqpr/sqpr_planner.h"

using namespace sqpr;
using namespace sqpr::bench;

namespace {
constexpr int64_t kTimeoutMs = 600000;
constexpr int64_t kMaxNodes = 400;
}  // namespace

int main() {
  PrintHeader("Hierarchical ablation (§VII)",
              "flat vs site-decomposed planning as hosts grow", 1);

  const std::vector<int> host_counts = {4, 8, 12};
  std::printf(
      "# hosts  sites  flat_adm  hier_adm  flat_ms/query  hier_ms/query\n");

  std::vector<double> flat_ms, hier_ms;
  std::vector<int> flat_adm, hier_adm;
  for (int hosts : host_counts) {
    ScenarioConfig config;
    config.hosts = hosts;
    config.base_streams = 8 * hosts;
    config.queries = 15 * hosts;

    // Flat SQPR (fallback off for a like-for-like MILP comparison).
    Scenario sf = MakeScenario(config);
    SqprPlanner::Options flat_options;
    flat_options.timeout_ms = kTimeoutMs;
    flat_options.max_nodes = kMaxNodes;
    flat_options.greedy_fallback = false;
    SqprPlanner flat(sf.cluster.get(), sf.catalog.get(), flat_options);
    int admitted_flat = 0;
    double ms_flat = 0.0;
    int solves = 0;
    for (StreamId q : sf.workload.queries) {
      auto stats = flat.SubmitQuery(q);
      SQPR_CHECK(stats.ok());
      if (!stats->already_served) {
        ms_flat += stats->wall_ms;
        ++solves;
      }
      admitted_flat += stats->admitted && !stats->already_served;
    }
    ms_flat /= std::max(1, solves);

    // Hierarchical: one site per ~4 hosts.
    Scenario sh = MakeScenario(config);
    HierarchicalPlanner::Options hier_options;
    hier_options.num_sites = std::max(1, hosts / 4);
    hier_options.planner.timeout_ms = kTimeoutMs;
    hier_options.planner.max_nodes = kMaxNodes;
    hier_options.planner.greedy_fallback = false;
    HierarchicalPlanner hier(sh.cluster.get(), sh.catalog.get(),
                             hier_options);
    int admitted_hier = 0;
    double ms_hier = 0.0;
    solves = 0;
    for (StreamId q : sh.workload.queries) {
      auto stats = hier.SubmitQuery(q);
      SQPR_CHECK(stats.ok());
      if (!stats->already_served) {
        ms_hier += stats->wall_ms;
        ++solves;
      }
      admitted_hier += stats->admitted && !stats->already_served;
    }
    ms_hier /= std::max(1, solves);

    std::printf("%7d  %5d  %8d  %8d  %13.1f  %13.1f\n", hosts,
                hier_options.num_sites, admitted_flat, admitted_hier,
                ms_flat, ms_hier);
    flat_ms.push_back(ms_flat);
    hier_ms.push_back(ms_hier);
    flat_adm.push_back(admitted_flat);
    hier_adm.push_back(admitted_hier);
  }

  ShapeCheck(hier_ms.back() < flat_ms.back(),
             "hierarchical plans faster than flat at the largest size");
  // Latency growth from smallest to largest cluster: hierarchical should
  // grow by a smaller factor than flat (the whole point of §VII).
  const double flat_growth = flat_ms.back() / std::max(1e-9, flat_ms.front());
  const double hier_growth = hier_ms.back() / std::max(1e-9, hier_ms.front());
  ShapeCheck(hier_growth < flat_growth,
             "hierarchical latency grows slower in hosts than flat");
  ShapeCheck(hier_adm.back() >= flat_adm.back() / 2,
             "admission loss from site restriction stays bounded (<2x)");
  return 0;
}
