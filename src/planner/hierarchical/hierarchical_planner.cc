#include "planner/hierarchical/hierarchical_planner.h"

#include <set>

#include "common/deadline.h"
#include "common/logging.h"

namespace sqpr {

HierarchicalPlanner::HierarchicalPlanner(const Cluster* cluster,
                                         Catalog* catalog, Options options)
    : cluster_(cluster),
      catalog_(catalog),
      num_sites_(options.num_sites),
      planner_(cluster, catalog, options.planner) {
  SQPR_CHECK(num_sites_ >= 1);
}

std::vector<HostId> HierarchicalPlanner::SiteHosts(int site) const {
  // Contiguous partition: site i owns hosts [i*H/K, (i+1)*H/K).
  const int H = cluster_->num_hosts();
  const int K = num_sites_;
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
  const int K = num_sites_;
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
    spare_cpu[site_of(h)] += cluster_->host(h).cpu - deployment().CpuUsed(h);
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
  const Deployment& committed = deployment();
  for (StreamId s : closure->streams) {
    const HostId server = committed.ServingHost(s);
    if (server != kInvalidHost) subset.insert(server);
    for (const auto& [from, to] : committed.FlowsOf(s)) {
      subset.insert(from);
      subset.insert(to);
    }
  }
  for (OperatorId o : closure->operators) {
    for (HostId h : committed.HostsRunning(o)) subset.insert(h);
  }
  return std::vector<HostId>(subset.begin(), subset.end());
}

Result<PlanningStats> HierarchicalPlanner::SubmitQuery(StreamId query) {
  Stopwatch watch;
  Result<int> site = AssignSite(query);
  if (!site.ok()) return site.status();
  Result<std::vector<HostId>> subset = BuildSubset(query, *site);
  if (!subset.ok()) return subset.status();
  Result<std::vector<PlanningStats>> batch =
      planner_.SubmitBatch({query}, *subset);
  if (!batch.ok()) return batch.status();
  PlanningStats stats = batch->front();
  stats.wall_ms = watch.ElapsedMillis();  // site selection included
  return stats;
}

}  // namespace sqpr
