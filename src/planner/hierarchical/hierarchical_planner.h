#ifndef SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_
#define SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_

#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/planner.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {

/// The §VII hierarchical decomposition the paper proposes as future
/// work: "first assigning queries to sites and then planning queries
/// within sites".
///
/// Hosts are partitioned into contiguous *sites*. Each submission is
/// assigned to one site (the one sourcing the most of the query's base
/// leaves, ties broken by spare CPU) and planned by one owned
/// SqprPlanner, restricted via SubmitBatch's host subset to
///
///   site hosts ∪ source hosts of the query's leaves
///             ∪ hosts carrying relevant committed state,
///
/// so the MILP sees a bounded number of hosts regardless of cluster
/// size. The last group keeps the (IV.9) no-drop constraints satisfiable
/// when related queries were planned by other sites. All sites share the
/// planner's one Deployment, so resource accounting (including the NIC
/// bandwidth of "border" source hosts outside the site) stays globally
/// consistent.
///
/// Everything else — dedup, the admission screen, the model cache, the
/// solve, the greedy fallback and commit-only-when-admitting — is
/// SqprPlanner's. With one site the subset is the whole cluster, so
/// hierarchical planning is flat SQPR with the same planner options,
/// decision for decision. The subset covers the relevant state of the
/// submitted query only, so `planner.reduce_problem` must stay true.
///
/// The trade-off versus flat SQPR — near-flat planning latency in the
/// number of hosts against some admission loss from the restricted
/// placement freedom — is measured by bench_hierarchical.
class HierarchicalPlanner : public Planner {
 public:
  struct Options {
    /// Number of contiguous host groups.
    int num_sites = 2;
    SqprPlanner::Options planner;
  };

  HierarchicalPlanner(const Cluster* cluster, Catalog* catalog,
                      Options options);

  std::string name() const override { return "sqpr-hierarchical"; }
  Result<PlanningStats> SubmitQuery(StreamId query) override;
  const Deployment& deployment() const override {
    return planner_.deployment();
  }
  const std::vector<StreamId>& admitted_queries() const override {
    return planner_.admitted_queries();
  }

  /// Hosts of site `site` (for tests and benches).
  std::vector<HostId> SiteHosts(int site) const;
  int num_sites() const { return num_sites_; }

  /// Site that would be chosen for `query` (exposed for tests).
  Result<int> AssignSite(StreamId query);

 private:
  /// Builds the host subset for planning `query` in `site`.
  Result<std::vector<HostId>> BuildSubset(StreamId query, int site);

  const Cluster* cluster_;
  Catalog* catalog_;
  int num_sites_;
  SqprPlanner planner_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_
