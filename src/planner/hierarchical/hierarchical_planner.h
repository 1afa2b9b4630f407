#ifndef SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_
#define SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_

#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/planner.h"
#include "planner/sqpr/model_builder.h"

namespace sqpr {

/// The §VII hierarchical decomposition the paper proposes as future
/// work: "first assigning queries to sites and then planning queries
/// within sites".
///
/// Hosts are partitioned into contiguous *sites*. Each submission is
/// assigned to one site (the one sourcing the most of the query's base
/// leaves, ties broken by spare CPU) and planned with the regular SQPR
/// reduced MILP — but restricted via SqprModelOptions::host_subset to
///
///   site hosts ∪ source hosts of the query's leaves
///             ∪ hosts carrying relevant committed state,
///
/// so the MILP sees a bounded number of hosts regardless of cluster
/// size. The last group keeps the (IV.9) no-drop constraints satisfiable
/// when related queries were planned by other sites. All sites share one
/// Deployment, so resource accounting (including the NIC bandwidth of
/// "border" source hosts outside the site) stays globally consistent.
///
/// The trade-off versus flat SQPR — near-flat planning latency in the
/// number of hosts against some admission loss from the restricted
/// placement freedom — is measured by bench_hierarchical.
class HierarchicalPlanner : public Planner {
 public:
  struct Options {
    /// Number of contiguous host groups. 1 degenerates to flat SQPR
    /// (without the greedy fallback).
    int num_sites = 2;
    /// Per-query solver budget (matches SqprPlanner::Options::timeout_ms).
    int64_t timeout_ms = 1000;
    int64_t max_nodes = 1000000;
    double mip_gap_abs = 0.1;
    double mip_gap_rel = 1e-4;
    SqprModelOptions model;
  };

  HierarchicalPlanner(const Cluster* cluster, Catalog* catalog,
                      Options options);

  std::string name() const override { return "sqpr-hierarchical"; }
  Result<PlanningStats> SubmitQuery(StreamId query) override;
  const Deployment& deployment() const override { return deployment_; }
  const std::vector<StreamId>& admitted_queries() const override {
    return admitted_;
  }

  /// Hosts of site `site` (for tests and benches).
  std::vector<HostId> SiteHosts(int site) const;
  int num_sites() const { return options_.num_sites; }

  /// Site that would be chosen for `query` (exposed for tests).
  Result<int> AssignSite(StreamId query);

 private:
  /// Builds the host subset for planning `query` in `site`.
  Result<std::vector<HostId>> BuildSubset(StreamId query, int site);

  const Cluster* cluster_;
  Catalog* catalog_;
  Options options_;
  Deployment deployment_;
  std::vector<StreamId> admitted_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_HIERARCHICAL_HIERARCHICAL_PLANNER_H_
