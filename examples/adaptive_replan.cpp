// Adaptive re-planning (§IV-B): plan queries, execute the deployment on
// the simulated cluster with real engine operators, compare measured
// composite stream rates against the planner's cost-model estimates, and
// re-plan the queries whose estimates drifted beyond a threshold.
//
//   ./build/examples/adaptive_replan

#include <cmath>
#include <cstdio>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "monitor/resource_monitor.h"
#include "planner/sqpr/sqpr_planner.h"
#include "sim/cluster_sim.h"

using namespace sqpr;

int main() {
  Cluster cluster(3, HostSpec{2.0, 150.0, 150.0, ""}, 1000.0);
  Catalog catalog{CostModel{}};
  std::vector<StreamId> base;
  for (int i = 0; i < 6; ++i) {
    base.push_back(catalog.AddBaseStream(i % 3, 10.0));
  }

  SqprPlanner planner(&cluster, &catalog, {});
  std::vector<StreamId> queries = {
      *catalog.CanonicalJoinStream({base[0], base[1]}),
      *catalog.CanonicalJoinStream({base[2], base[3]}),
      *catalog.CanonicalJoinStream({base[4], base[5]}),
  };
  for (StreamId q : queries) {
    auto stats = planner.SubmitQuery(q);
    std::printf("admit %-12s -> %s\n", catalog.stream(q).name.c_str(),
                stats.ok() && stats->admitted ? "ok" : "rejected");
  }

  // Execute the committed deployment and measure realised rates.
  SimConfig sim_config;
  sim_config.rate_scale = 0.05;
  sim_config.duration_ms = 20000;
  ClusterSim sim(planner.deployment(), sim_config);
  if (!sim.Setup().ok()) return 1;
  Result<SimReport> report = sim.Run();
  if (!report.ok()) return 1;

  // §IV-B drift detection: list queries whose measured output rate
  // deviates from the initial estimate by more than the threshold.
  const double kDriftThreshold = 0.5;  // 50%
  std::vector<StreamId> drifted;
  std::printf("\n%-14s %12s %12s %8s\n", "stream", "model Mbps",
              "measured", "drift");
  for (StreamId q : planner.admitted_queries()) {
    const double modelled = catalog.stream(q).rate_mbps;
    const auto it = report->measured_rate_mbps.find(q);
    const double measured = it == report->measured_rate_mbps.end() ? 0.0
                                                                   : it->second;
    const double drift = modelled > 0 ? std::abs(measured - modelled) / modelled
                                      : 0.0;
    std::printf("%-14s %12.4f %12.4f %7.0f%%%s\n",
                catalog.stream(q).name.c_str(), modelled, measured,
                drift * 100.0, drift > kDriftThreshold ? "  <- replan" : "");
    if (drift > kDriftThreshold) drifted.push_back(q);
  }

  if (!drifted.empty()) {
    std::printf("\nre-planning %zu drifted quer%s...\n", drifted.size(),
                drifted.size() == 1 ? "y" : "ies");
    const Status removed = planner.RemoveQueries(drifted);
    if (!removed.ok()) {
      std::printf("removal failed: %s\n", removed.ToString().c_str());
      return 1;
    }
    for (StreamId q : drifted) {
      auto stats = planner.SubmitQuery(q);
      std::printf("  %-12s re-admitted=%s\n", catalog.stream(q).name.c_str(),
                  stats.ok() && stats->admitted ? "yes" : "no");
    }
  } else {
    std::printf("\nno drift beyond %.0f%% — no re-planning needed\n",
                kDriftThreshold * 100);
  }

  std::printf("\nhost CPU utilisation measured in simulation: ");
  for (double u : report->cpu_utilization) std::printf("%.1f%% ", u * 100);
  std::printf("\n");

  // ---- Act 2: base-rate drift (§IV-B via the ResourceMonitor). ----
  // A source doubles its rate in production. The monitor flags every
  // query whose leaf set contains it; RunDriftCycle removes them,
  // installs the measured rate into the catalog (composite rates and
  // operator costs recompute exactly) and refreshes the ledgers, and
  // the removed queries are re-admitted.
  std::printf("\n--- base stream %s doubles to 20 Mbps ---\n",
              catalog.stream(base[0]).name.c_str());
  const std::map<StreamId, double> measured = {{base[0], 20.0}};
  ResourceMonitor monitor(&catalog, DriftOptions{});
  const DriftReport drift_report =
      monitor.Analyze(measured, report->cpu_utilization,
                      planner.admitted_queries(), planner.deployment());
  std::printf("monitor flags %zu quer%s for re-planning\n",
              drift_report.queries_to_replan.size(),
              drift_report.queries_to_replan.size() == 1 ? "y" : "ies");

  std::vector<StreamId> evicted;
  const Status cycle =
      RunDriftCycle(&planner, &catalog, measured, drift_report,
                    [&evicted](StreamId q) { evicted.push_back(q); });
  if (!cycle.ok()) {
    std::printf("adaptive replan failed: %s\n", cycle.ToString().c_str());
    return 1;
  }
  int readmitted = 0;
  for (StreamId q : evicted) {
    Result<PlanningStats> stats = planner.SubmitQuery(q);
    if (!stats.ok()) {
      std::printf("re-admission failed: %s\n",
                  stats.status().ToString().c_str());
      return 1;
    }
    readmitted += stats->admitted;
  }
  std::printf("re-admitted %d/%zu under the corrected estimates\n",
              readmitted, evicted.size());
  const Status audit = planner.deployment().Validate();
  std::printf("deployment audit after adaptation: %s\n",
              audit.ToString().c_str());
  return audit.ok() ? 0 : 1;
}
