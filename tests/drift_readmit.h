// Test helper: the §IV-B adaptive cycle with immediate re-admission.

#ifndef SQPR_TESTS_DRIFT_READMIT_H_
#define SQPR_TESTS_DRIFT_READMIT_H_

#include <map>
#include <vector>

#include "monitor/resource_monitor.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {

/// Runs RunDriftCycle with a collecting sink, then re-submits every
/// removed query, in removal order; returns the re-admission stats.
inline Result<std::vector<PlanningStats>> DriftAndReadmit(
    SqprPlanner* planner, Catalog* catalog,
    const std::map<StreamId, double>& measured, const DriftReport& report) {
  std::vector<StreamId> removed;
  SQPR_RETURN_IF_ERROR(
      RunDriftCycle(planner, catalog, measured, report,
                    [&removed](StreamId q) { removed.push_back(q); }));
  std::vector<PlanningStats> stats;
  for (StreamId q : removed) {
    Result<PlanningStats> s = planner->SubmitQuery(q);
    if (!s.ok()) return s.status();
    stats.push_back(*s);
  }
  return stats;
}

}  // namespace sqpr

#endif  // SQPR_TESTS_DRIFT_READMIT_H_
