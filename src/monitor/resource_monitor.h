#ifndef SQPR_MONITOR_RESOURCE_MONITOR_H_
#define SQPR_MONITOR_RESOURCE_MONITOR_H_

#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "model/catalog.h"
#include "planner/planner.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {

/// Thresholds for the §IV-B drift detection. Both comparisons are
/// STRICT (exclusive): a measurement sitting exactly on a threshold
/// does not trigger.
struct DriftOptions {
  /// Relative deviation of a measured base-stream rate from the
  /// catalog estimate that triggers re-planning ("differs from the
  /// initial estimates by a given threshold"). A stream drifts when
  /// |measured - estimate| / estimate > rate_threshold; a deviation
  /// exactly at the threshold counts as on-estimate (it is still
  /// installed by the drift cycle, so estimates converge either way).
  double rate_threshold = 0.2;
  /// CPU utilisation above which a host counts as suffering a resource
  /// shortage (fraction of budget). Strict: utilisation == threshold is
  /// not a shortage, so the default 1.0 flags only hosts genuinely
  /// *over* budget, never one running exactly at capacity.
  double shortage_utilization = 1.0;
};

/// What the monitor found in one reporting period.
struct DriftReport {
  /// Base streams whose measured rate deviates beyond the threshold.
  std::vector<StreamId> drifted_base_streams;
  /// Hosts whose measured CPU exceeds the shortage threshold.
  std::vector<HostId> overloaded_hosts;
  /// Admitted queries affected by either condition — the re-planning
  /// list of §IV-B. Deduplicated (sorted, unique): a query implicated by
  /// both a drifted base stream and an overloaded host appears once, so
  /// one reporting period re-plans it exactly once.
  std::vector<StreamId> queries_to_replan;

  bool empty() const {
    return drifted_base_streams.empty() && overloaded_hosts.empty();
  }
};

/// The planner-side half of the paper's resource monitoring loop
/// (§IV-C): DISSP hosts sample utilisation and stream rates; this class
/// compares the reports against the catalog's cost-model estimates and
/// periodically constructs the list of queries needing re-planning
/// (§IV-B conditions (a) estimate drift and (b) resource shortage).
class ResourceMonitor {
 public:
  ResourceMonitor(const Catalog* catalog, DriftOptions options)
      : catalog_(catalog), options_(options) {}

  /// Analyses one reporting period.
  ///  * `measured_base_rates` — observed Mbps per base stream (absent
  ///    streams are assumed on-estimate);
  ///  * `cpu_utilization` — per-host CPU as a fraction of budget (e.g.
  ///    SimReport::cpu_utilization);
  ///  * `admitted` — currently admitted queries, used to map drifted
  ///    streams to affected queries via their leaf sets;
  ///  * `deployment` — the committed state; queries whose plans touch an
  ///    overloaded host are also added to the re-planning list.
  /// The re-planning list is deduplicated across both conditions.
  /// Boundary semantics: empty inputs are all valid — no measured
  /// rates, no CPU observations, no admitted queries, or an empty
  /// deployment simply contribute nothing to the report. Threshold
  /// comparisons are strict; see DriftOptions.
  DriftReport Analyze(const std::map<StreamId, double>& measured_base_rates,
                      const std::vector<double>& cpu_utilization,
                      const std::vector<StreamId>& admitted,
                      const Deployment& deployment) const;

 private:
  const Catalog* catalog_;
  DriftOptions options_;
};

/// First host whose committed usage exceeds any §II-B budget (CPU,
/// memory, NIC in/out or an outgoing link), or kInvalidHost when every
/// ledger fits. Used by the adaptive cycle and the planning service to
/// drive shortage-triggered eviction.
HostId FirstOverBudgetHost(const Deployment& deployment, double tol);

/// The §IV-B adaptive cycle — remove, install, evict — parameterised on
/// the re-admission sink; the ONE driver of that cycle (the planning
/// service's sink feeds its bounded-round scheduler, a caller wanting
/// immediate re-admission collects the queries and SubmitQuery's them):
///
///  1. remove the report's re-planning list (deduplicated, filtered to
///     admitted queries) from the deployment as one
///     SqprPlanner::RemoveQueries batch, then hand each removed query to
///     `readmit_sink`, in list order;
///  2. install the measured base rates into the catalog (composite
///     rates and operator costs recompute exactly) and refresh the
///     deployment's resource ledgers;
///  3. EvictOverBudget, handing its victims to `readmit_sink` too.
///
/// Mid-cycle the ledgers may legitimately over-commit (rates grew under
/// committed state), so ResourceExhausted from removal audits is
/// tolerated throughout. The sink is invoked once per removed query, in
/// removal order; re-admission policy is entirely the caller's.
Status RunDriftCycle(SqprPlanner* planner, Catalog* catalog,
                     const std::map<StreamId, double>& measured_base_rates,
                     const DriftReport& report,
                     const std::function<void(StreamId)>& readmit_sink);

/// §IV-B condition (b): while a budget is over-committed, evicts the
/// first admitted query whose extracted plan touches the first
/// over-budget host, or purges the host (SqprPlanner::PurgeHost) when
/// only redundant support pins it. A failed host (zero budgets) takes
/// the same loop. The sink gets each evicted query, in eviction order.
Status EvictOverBudget(SqprPlanner* planner,
                       const std::function<void(StreamId)>& sink);

}  // namespace sqpr

#endif  // SQPR_MONITOR_RESOURCE_MONITOR_H_
