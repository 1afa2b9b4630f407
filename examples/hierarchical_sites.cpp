// Federated data-centre planning (§VII): a 12-host DSPS split into three
// 4-host sites. Each query is first assigned to a site (by where its
// base streams live), then planned with the SQPR MILP restricted to that
// site plus the border hosts sourcing remote streams — so planning cost
// stays bounded as the federation grows.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/hierarchical_sites

#include <cstdio>

#include "model/catalog.h"
#include "model/cluster.h"
#include "planner/hierarchical/hierarchical_planner.h"
#include "workload/generator.h"

using namespace sqpr;

int main() {
  // Three "data centres" of four hosts each.
  Cluster cluster(12, HostSpec{1.0, 150.0, 150.0, ""}, 300.0);
  Catalog catalog{CostModel{}};

  WorkloadConfig wc;
  wc.num_base_streams = 72;  // six per host, uniform spread
  wc.num_queries = 120;
  wc.arities = {2, 3};
  wc.seed = 2026;
  Workload workload = *GenerateWorkload(wc, cluster.num_hosts(), &catalog);

  HierarchicalPlanner::Options options;
  options.num_sites = 3;
  options.planner.timeout_ms = 300;
  HierarchicalPlanner planner(&cluster, &catalog, options);

  std::printf("federation: %d hosts in %d sites\n", cluster.num_hosts(),
              planner.num_sites());
  for (int site = 0; site < planner.num_sites(); ++site) {
    const std::vector<HostId> hosts = planner.SiteHosts(site);
    std::printf("  site %d: hosts %d..%d\n", site, hosts.front(),
                hosts.back());
  }

  int admitted = 0, duplicates = 0;
  double total_ms = 0.0;
  for (StreamId q : workload.queries) {
    Result<PlanningStats> stats = planner.SubmitQuery(q);
    if (!stats.ok()) {
      std::printf("planning error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    if (stats->already_served) {
      ++duplicates;
    } else {
      admitted += stats->admitted;
      total_ms += stats->wall_ms;
    }
  }
  std::printf("\nsubmitted %zu queries: %d admitted, %d duplicate "
              "(free reuse), avg %.1f ms/plan\n",
              workload.queries.size(), admitted, duplicates,
              total_ms / std::max<size_t>(1, workload.queries.size()));

  std::printf("\nper-site load after planning (CPU used per host):\n");
  for (int site = 0; site < planner.num_sites(); ++site) {
    std::printf("  site %d:", site);
    for (HostId h : planner.SiteHosts(site)) {
      std::printf(" %.2f", planner.deployment().CpuUsed(h));
    }
    std::printf("\n");
  }

  const Status audit = planner.deployment().Validate();
  std::printf("\ndeployment audit: %s\n", audit.ToString().c_str());
  return audit.ok() ? 0 : 1;
}
