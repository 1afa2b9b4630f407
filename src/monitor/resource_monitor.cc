#include "monitor/resource_monitor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "plan/query_plan.h"

namespace sqpr {

HostId FirstOverBudgetHost(const Deployment& deployment, double tol) {
  const Cluster& cluster = deployment.cluster();
  for (HostId h = 0; h < cluster.num_hosts(); ++h) {
    const HostSpec& spec = cluster.host(h);
    if (deployment.CpuUsed(h) > spec.cpu + tol ||
        deployment.MemUsed(h) > spec.mem_mb + tol ||
        deployment.NicOutUsed(h) > spec.nic_out_mbps + tol ||
        deployment.NicInUsed(h) > spec.nic_in_mbps + tol) {
      return h;
    }
    for (HostId m = 0; m < cluster.num_hosts(); ++m) {
      if (m != h && deployment.LinkUsed(h, m) >
                        cluster.link_mbps(h, m) + tol) {
        return h;
      }
    }
  }
  return kInvalidHost;
}

DriftReport ResourceMonitor::Analyze(
    const std::map<StreamId, double>& measured_base_rates,
    const std::vector<double>& cpu_utilization,
    const std::vector<StreamId>& admitted,
    const Deployment& deployment) const {
  DriftReport report;

  std::set<StreamId> drifted;
  for (const auto& [s, measured] : measured_base_rates) {
    if (s < 0 || s >= catalog_->num_streams()) continue;
    // Non-positive measurements cannot be installed as catalog rates
    // (UpdateBaseRate rejects them), so flagging them as drift would
    // evict queries for ever without the estimate ever converging.
    if (measured <= 0) continue;
    const StreamInfo& info = catalog_->stream(s);
    if (!info.is_base || info.rate_mbps <= 0) continue;
    const double deviation =
        std::abs(measured - info.rate_mbps) / info.rate_mbps;
    if (deviation > options_.rate_threshold) drifted.insert(s);
  }
  report.drifted_base_streams.assign(drifted.begin(), drifted.end());

  for (size_t h = 0; h < cpu_utilization.size(); ++h) {
    if (cpu_utilization[h] > options_.shortage_utilization) {
      report.overloaded_hosts.push_back(static_cast<HostId>(h));
    }
  }

  // Affected queries, deduplicated across both §IV-B conditions: a query
  // implicated by a drifted leaf *and* an overloaded host must be
  // re-planned once per round, not twice. Each query's plan is extracted
  // at most once, regardless of how many hosts are overloaded.
  const std::set<HostId> overloaded(report.overloaded_hosts.begin(),
                                    report.overloaded_hosts.end());
  std::set<StreamId> to_replan;
  for (StreamId q : admitted) {
    const StreamInfo& info = catalog_->stream(q);
    const bool touched =
        std::any_of(info.leaves.begin(), info.leaves.end(),
                    [&](StreamId leaf) { return drifted.count(leaf) > 0; });
    if (touched) {
      to_replan.insert(q);
      continue;
    }
    if (PlanUsesAnyHost(deployment, q, overloaded)) to_replan.insert(q);
  }
  report.queries_to_replan.assign(to_replan.begin(), to_replan.end());
  return report;
}

Status RunDriftCycle(SqprPlanner* planner, Catalog* catalog,
                     const std::map<StreamId, double>& measured_base_rates,
                     const DriftReport& report,
                     const std::function<void(StreamId)>& readmit_sink) {
  // 1. Remove the flagged queries ("considering the system without
  //    those queries", §IV-B) in one batch. While the cycle is mid-flight
  //    the ledgers may legitimately be over budget (rates grew under
  //    committed state), so ResourceExhausted from the removal audit is
  //    not fatal — the removal itself has been applied. Analyze already
  //    emits a unique list, but a caller-assembled report must not
  //    re-plan one query twice per round. An empty batch would still
  //    collect garbage, so a report that flags nothing removes nothing.
  const std::vector<StreamId>& admitted = planner->admitted_queries();
  std::vector<StreamId> removed;
  for (StreamId q : report.queries_to_replan) {
    if (std::find(admitted.begin(), admitted.end(), q) != admitted.end() &&
        std::find(removed.begin(), removed.end(), q) == removed.end()) {
      removed.push_back(q);
    }
  }
  if (!removed.empty()) {
    const Status st = planner->RemoveQueries(removed);
    if (!st.ok() && !st.IsResourceExhausted()) return st;
    for (StreamId q : removed) readmit_sink(q);
  }

  // 2. Install measured rates; costs of still-committed operators may
  //    change, so refresh the ledgers.
  for (const auto& [s, rate] : measured_base_rates) {
    if (s >= 0 && s < catalog->num_streams() && rate > 0 &&
        catalog->stream(s).is_base &&
        std::abs(rate - catalog->stream(s).rate_mbps) > 1e-12) {
      SQPR_RETURN_IF_ERROR(catalog->UpdateBaseRate(s, rate));
    }
  }
  planner->RefreshAccounting();

  // 3. Evict further queries while any budget is over-committed under
  //    the new rates (§IV-B condition (b)).
  return EvictOverBudget(planner, readmit_sink);
}

Status EvictOverBudget(SqprPlanner* planner,
                       const std::function<void(StreamId)>& sink) {
  // Removing a query and its garbage leaves the other admitted queries'
  // extracted plans as they were, so while the same host stays over
  // budget the scan resumes at the last victim's position.
  HostId scanned = kInvalidHost;
  size_t next = 0;
  while (true) {
    const HostId h = FirstOverBudgetHost(planner->deployment(), 1e-6);
    if (h == kInvalidHost) break;
    if (h != scanned) {
      scanned = h;
      next = 0;
    }
    const std::vector<StreamId>& admitted = planner->admitted_queries();
    while (next < admitted.size() &&
           !PlanUsesHost(planner->deployment(), admitted[next], h)) {
      ++next;
    }
    if (next < admitted.size()) {
      const StreamId victim = admitted[next];
      const Status st = planner->RemoveQueries({victim});
      if (!st.ok() && !st.IsResourceExhausted()) return st;
      sink(victim);
      continue;
    }
    // No extractable plan touches the host: the usage is redundant
    // support.
    Result<std::vector<StreamId>> purged = planner->PurgeHost(h);
    if (!purged.ok()) return purged.status();
    for (StreamId q : *purged) sink(q);
    if (FirstOverBudgetHost(planner->deployment(), 1e-6) == h) {
      return Status::Internal("host " + std::to_string(h) +
                              " over budget with nothing left to evict");
    }
  }
  return Status::OK();
}

}  // namespace sqpr
