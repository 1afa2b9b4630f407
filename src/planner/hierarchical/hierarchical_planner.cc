#include "planner/hierarchical/hierarchical_planner.h"

#include <algorithm>
#include <set>

#include "common/deadline.h"
#include "common/logging.h"
#include "milp/solver.h"

namespace sqpr {

HierarchicalPlanner::HierarchicalPlanner(const Cluster* cluster,
                                         Catalog* catalog, Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog) {
  SQPR_CHECK(options_.num_sites >= 1);
}

std::vector<HostId> HierarchicalPlanner::SiteHosts(int site) const {
  // Contiguous partition: site i owns hosts [i*H/K, (i+1)*H/K).
  const int H = cluster_->num_hosts();
  const int K = options_.num_sites;
  const int lo = static_cast<int>(static_cast<int64_t>(site) * H / K);
  const int hi = static_cast<int>(static_cast<int64_t>(site + 1) * H / K);
  std::vector<HostId> hosts;
  for (HostId h = lo; h < hi; ++h) hosts.push_back(h);
  return hosts;
}

Result<int> HierarchicalPlanner::AssignSite(StreamId query) {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  const int H = cluster_->num_hosts();
  const int K = options_.num_sites;
  auto site_of = [&](HostId h) {
    return static_cast<int>(static_cast<int64_t>(h) * K / H);
  };

  std::vector<int> leaf_count(K, 0);
  for (StreamId leaf : catalog_->stream(query).leaves) {
    const HostId src = catalog_->stream(leaf).source_host;
    if (src != kInvalidHost) ++leaf_count[site_of(src)];
  }
  std::vector<double> spare_cpu(K, 0.0);
  for (HostId h = 0; h < H; ++h) {
    spare_cpu[site_of(h)] += cluster_->host(h).cpu - deployment_.CpuUsed(h);
  }

  int best = 0;
  for (int site = 1; site < K; ++site) {
    if (leaf_count[site] > leaf_count[best] ||
        (leaf_count[site] == leaf_count[best] &&
         spare_cpu[site] > spare_cpu[best])) {
      best = site;
    }
  }
  return best;
}

Result<std::vector<HostId>> HierarchicalPlanner::BuildSubset(StreamId query,
                                                             int site) {
  std::set<HostId> subset;
  for (HostId h : SiteHosts(site)) subset.insert(h);

  Result<Closure> closure = catalog_->JoinClosure(query);
  if (!closure.ok()) return closure.status();

  // Border hosts: sources of the query's base leaves (inter-site stream
  // imports, the "federated data centres" case of §VII).
  for (StreamId s : closure->streams) {
    const StreamInfo& info = catalog_->stream(s);
    if (info.is_base && info.source_host != kInvalidHost) {
      subset.insert(info.source_host);
    }
  }

  // Hosts carrying relevant committed state: keeps warm starts feasible
  // and lets the no-drop constraints re-place related queries in place.
  for (StreamId s : closure->streams) {
    const HostId server = deployment_.ServingHost(s);
    if (server != kInvalidHost) subset.insert(server);
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      subset.insert(from);
      subset.insert(to);
    }
  }
  for (OperatorId o : closure->operators) {
    for (HostId h : deployment_.HostsRunning(o)) subset.insert(h);
  }
  return std::vector<HostId>(subset.begin(), subset.end());
}

Result<PlanningStats> HierarchicalPlanner::SubmitQuery(StreamId query) {
  Stopwatch watch;
  PlanningStats stats;

  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  if (deployment_.ServingHost(query) != kInvalidHost) {
    stats.admitted = true;
    stats.already_served = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }

  Result<int> site = AssignSite(query);
  if (!site.ok()) return site.status();
  Result<std::vector<HostId>> subset = BuildSubset(query, *site);
  if (!subset.ok()) return subset.status();

  // Relevant sets exactly as flat SQPR computes them (§IV-A).
  Result<Closure> closure = catalog_->JoinClosure(query);
  if (!closure.ok()) return closure.status();
  std::vector<DemandSpec> demands;
  demands.push_back({query, /*must_serve=*/false});
  const std::set<StreamId> rel(closure->streams.begin(),
                               closure->streams.end());
  for (StreamId q : admitted_) {
    if (rel.count(q)) demands.push_back({q, /*must_serve=*/true});
  }

  SqprModelOptions model_options = options_.model;
  model_options.host_subset = *subset;
  SqprMip mip(deployment_, closure->streams, closure->operators,
              std::move(demands), model_options);
  const std::vector<double> warm = mip.WarmStart();
  SqprMip::CycleCutHandler cycle_handler(&mip);

  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(options_.timeout_ms);
  solver_options.max_nodes = options_.max_nodes;
  solver_options.gap_abs = options_.mip_gap_abs;
  solver_options.gap_rel = options_.mip_gap_rel;
  solver_options.warm_start = &warm;
  if (model_options.acyclicity == AcyclicityMode::kLazyCycleCuts) {
    solver_options.lazy = &cycle_handler;
  }

  milp::Solver solver;
  const milp::MipResult result = solver.Solve(mip.mip(), solver_options);

  if (result.has_solution()) {
    SQPR_CHECK_OK(mip.Commit(result.x, &deployment_));
    const Status valid = deployment_.Validate();
    SQPR_CHECK(valid.ok()) << "hierarchical commit broke invariants: "
                           << valid.ToString();
    if (mip.Serves(result.x, query)) {
      stats.admitted = true;
      admitted_.push_back(query);
    }
  }

  stats.wall_ms = watch.ElapsedMillis();
  stats.solver_nodes = result.nodes;
  stats.lp_iterations = result.lp_counters.iterations;
  stats.lp_factorizations = result.lp_counters.factorizations;
  stats.lp_dual_solves = result.lp_counters.dual_solves;
  stats.lp_slack_start_iterations = result.lp_counters.slack_start_iterations;
  stats.rejected_candidates = result.rejected_candidates;
  stats.objective = result.has_solution() ? result.objective : 0.0;
  stats.proved_optimal = result.status == milp::MipStatus::kOptimal;
  return stats;
}

}  // namespace sqpr
