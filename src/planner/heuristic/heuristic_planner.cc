#include "planner/heuristic/heuristic_planner.h"

#include <algorithm>
#include <set>

#include "common/deadline.h"
#include "common/logging.h"

namespace sqpr {

HeuristicPlanner::HeuristicPlanner(const Cluster* cluster, Catalog* catalog,
                                   Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog) {
  resolved_weights_ = options_.weights;
  if (resolved_weights_.lambda2 <= 0) {
    resolved_weights_.lambda2 = 1.0 / std::max(1.0, cluster->TotalNicOut());
  }
  if (resolved_weights_.lambda3 <= 0) {
    resolved_weights_.lambda3 =
        1.0 / std::max(1.0, cluster->TotalLinkCapacity());
  }
  if (resolved_weights_.lambda4 < 0) resolved_weights_.lambda4 = 1.0;
}

namespace {

/// Weighted objective (higher = better); admission (O1) is equal across
/// candidates for one query, so only -λ2·O2 - λ3·O3 - λ4·O4 differ.
double Score(const ObjectiveWeights& weights, const Deployment& dep) {
  return -weights.lambda2 * dep.TotalNetworkUsed() -
         weights.lambda3 * dep.TotalCpuUsed() -
         weights.lambda4 * dep.MaxHostCpuUsed();
}

/// Attempts to realise `tree` entirely on host `host`, editing `scratch`.
/// Reuse is judged against `committed`, the unmodified deployment the
/// candidates start from; `local` accumulates streams made available at
/// `host` during this placement. Returns false when resources run out.
bool PlaceTreeAt(const Cluster& cluster, const Catalog& catalog,
                 const JoinTree& tree, HostId host,
                 const Deployment& committed,
                 std::set<StreamId>* local, Deployment* scratch) {
  const StreamId s = tree.stream;

  // Already locally available: from the committed state or made so
  // earlier during this candidate placement.
  if (committed.Grounded(host, s) || local->count(s) > 0) return true;

  // Aggressive reuse: fetch the complete sub-query stream from any host
  // that has it, preferring the sender with the most NIC headroom.
  HostId best_sender = kInvalidHost;
  double best_headroom = -1.0;
  for (HostId m = 0; m < cluster.num_hosts(); ++m) {
    if (m == host || !committed.Grounded(m, s)) continue;
    if (!scratch->CanAddFlow(m, host, s)) continue;
    const double headroom =
        cluster.host(m).nic_out_mbps - scratch->NicOutUsed(m);
    if (headroom > best_headroom) {
      best_headroom = headroom;
      best_sender = m;
    }
  }
  if (best_sender != kInvalidHost) {
    SQPR_CHECK_OK(scratch->AddFlow(best_sender, host, s));
    local->insert(s);
    return true;
  }

  // No reuse possible: compute locally. Leaves that reach this point are
  // base streams not present anywhere reachable — unplaceable.
  if (tree.is_leaf()) return false;
  if (!PlaceTreeAt(cluster, catalog, *tree.left, host, committed, local,
                   scratch)) {
    return false;
  }
  if (!PlaceTreeAt(cluster, catalog, *tree.right, host, committed, local,
                   scratch)) {
    return false;
  }
  if (!scratch->RunsOperator(host, tree.op)) {
    if (!scratch->CanPlaceOperator(host, tree.op)) return false;
    SQPR_CHECK_OK(scratch->PlaceOperator(host, tree.op));
  }
  local->insert(s);
  return true;
}

}  // namespace

bool GreedyAdmit(const Cluster& cluster, Catalog* catalog, StreamId query,
                 const ObjectiveWeights& weights, Deployment* deployment) {
  // Resolve defaulted weights the same way the SQPR model builder does.
  ObjectiveWeights w = weights;
  if (w.lambda2 <= 0) w.lambda2 = 1.0 / std::max(1.0, cluster.TotalNicOut());
  if (w.lambda3 <= 0) {
    w.lambda3 = 1.0 / std::max(1.0, cluster.TotalLinkCapacity());
  }
  if (w.lambda4 < 0) w.lambda4 = 1.0;

  Result<std::vector<std::unique_ptr<JoinTree>>> trees =
      EnumerateJoinTrees(query, catalog);
  if (!trees.ok()) return false;

  // Reuse decisions are made against the committed availability
  // (streams materialised by previous queries): `*deployment` stays
  // unmodified until the best candidate replaces it.
  double best_score = -lp::kInf;
  Deployment best = *deployment;
  bool found = false;

  for (const auto& tree : *trees) {
    for (HostId host = 0; host < cluster.num_hosts(); ++host) {
      Deployment scratch = *deployment;
      std::set<StreamId> local;
      if (!PlaceTreeAt(cluster, *catalog, *tree, host, *deployment, &local,
                       &scratch)) {
        continue;
      }
      if (!scratch.CanServe(query, host)) continue;
      SQPR_CHECK_OK(scratch.SetServing(query, host));
      if (!scratch.Validate().ok()) continue;
      const double score = Score(w, scratch);
      if (score > best_score) {
        best_score = score;
        best = std::move(scratch);
        found = true;
      }
    }
  }

  if (found) *deployment = std::move(best);
  return found;
}

Result<PlanningStats> HeuristicPlanner::SubmitQuery(StreamId query) {
  Stopwatch watch;
  PlanningStats stats;

  if (deployment_.ServingHost(query) != kInvalidHost) {
    stats.admitted = true;
    stats.already_served = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }

  if (GreedyAdmit(*cluster_, catalog_, query, resolved_weights_,
                  &deployment_)) {
    admitted_.push_back(query);
    stats.admitted = true;
  }
  stats.wall_ms = watch.ElapsedMillis();
  return stats;
}

}  // namespace sqpr
