#include "planner/soda/soda_planner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/deadline.h"
#include "common/logging.h"
#include "lp/model.h"

namespace sqpr {
namespace {

/// Working state of one placement attempt: a scratch deployment, and
/// availability as the committed grounded state extended by exactly the
/// (host, stream) pairs this attempt's flows and operators provide.
struct PlacementContext {
  const Deployment* base;
  Deployment scratch;
  std::set<std::pair<HostId, StreamId>> provided;

  explicit PlacementContext(const Deployment& committed)
      : base(&committed), scratch(committed) {}

  bool Available(HostId h, StreamId s) const {
    return base->Grounded(h, s) || provided.count({h, s}) > 0;
  }
  void MarkAvailable(HostId h, StreamId s) { provided.emplace(h, s); }
};

}  // namespace

SodaPlanner::SodaPlanner(const Cluster* cluster, Catalog* catalog,
                         Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog) {}

double SodaPlanner::HostScore(const Deployment& dep, HostId h,
                              double cpu) const {
  const double cap = cluster_->host(h).cpu;
  if (cap <= 0) return lp::kInf;
  return (dep.CpuUsed(h) + cpu) / cap;
}

namespace {

/// Makes `s` available at `host`, fetching it once from another host if
/// needed ("input streams are received once from the original host and
/// locally propagated", §V-B). Returns false when no grounded sender has
/// the bandwidth.
bool EnsureAvailable(const Cluster& cluster, StreamId s, HostId host,
                     PlacementContext* ctx) {
  if (ctx->Available(host, s)) return true;
  HostId best = kInvalidHost;
  double best_headroom = -1.0;
  for (HostId m = 0; m < cluster.num_hosts(); ++m) {
    if (m == host || !ctx->Available(m, s)) continue;
    if (!ctx->scratch.CanAddFlow(m, host, s)) continue;
    const double headroom =
        cluster.host(m).nic_out_mbps - ctx->scratch.NicOutUsed(m);
    if (headroom > best_headroom) {
      best_headroom = headroom;
      best = m;
    }
  }
  if (best == kInvalidHost) return false;
  SQPR_CHECK_OK(ctx->scratch.AddFlow(best, host, s));
  ctx->MarkAvailable(host, s);
  return true;
}

/// Replays a complete assignment (template operators -> hosts, then
/// serving). Returns the context, or nullopt on infeasibility.
struct ReplayResult {
  PlacementContext ctx;
  HostId serve_host = kInvalidHost;
};

Result<ReplayResult> Replay(
    const Cluster& cluster, const Catalog& catalog, const Deployment& base,
    const std::vector<std::pair<OperatorId, HostId>>& assignment,
    StreamId query) {
  ReplayResult out{PlacementContext(base), kInvalidHost};
  PlacementContext& ctx = out.ctx;
  for (const auto& [op_id, host] : assignment) {
    const OperatorInfo& op = catalog.op(op_id);
    for (StreamId in : op.inputs) {
      if (!EnsureAvailable(cluster, in, host, &ctx)) {
        return Status::Infeasible("input fetch failed");
      }
    }
    if (!ctx.scratch.CanPlaceOperator(host, op_id)) {
      return Status::Infeasible("cpu exhausted");
    }
    SQPR_CHECK_OK(ctx.scratch.PlaceOperator(host, op_id));
    ctx.MarkAvailable(host, op.output);
  }
  // Serve from the root operator's host when the template placed ops;
  // otherwise (full reuse) from the best host already holding the query.
  HostId serve = assignment.empty() ? kInvalidHost : assignment.back().second;
  if (serve == kInvalidHost || !ctx.Available(serve, query)) {
    for (HostId h = 0; h < cluster.num_hosts(); ++h) {
      if (ctx.Available(h, query) && ctx.scratch.CanServe(query, h)) {
        serve = h;
        break;
      }
    }
  }
  if (serve == kInvalidHost || !ctx.Available(serve, query) ||
      !ctx.scratch.CanServe(query, serve)) {
    return Status::Infeasible("no serving host");
  }
  SQPR_CHECK_OK(ctx.scratch.SetServing(query, serve));
  out.serve_host = serve;
  return out;
}

/// macroW/miniW placement quality: lexicographically (max CPU
/// utilisation fraction, total network). Lower is better.
std::pair<double, double> PlacementScore(const Cluster& cluster,
                                         const Deployment& dep) {
  double worst = 0.0;
  for (HostId h = 0; h < cluster.num_hosts(); ++h) {
    const double cap = cluster.host(h).cpu;
    if (cap > 0) worst = std::max(worst, dep.CpuUsed(h) / cap);
  }
  return {worst, dep.TotalNetworkUsed()};
}

}  // namespace

Result<PlanningStats> SodaPlanner::SubmitQuery(StreamId query) {
  Stopwatch watch;
  PlanningStats stats;

  if (deployment_.ServingHost(query) != kInvalidHost) {
    stats.admitted = true;
    stats.already_served = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }

  // The fixed user-given template.
  Result<std::unique_ptr<JoinTree>> tree = LeftDeepTree(query, catalog_);
  if (!tree.ok()) return tree.status();
  const std::vector<OperatorId> template_ops = BottomUpOperators(**tree);

  auto grounded_anywhere = [&](StreamId s) {
    for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
      if (deployment_.Grounded(h, s)) return true;
    }
    return false;
  };

  // Operators whose output is not yet generated anywhere must be newly
  // instantiated; existing streams are reused ("each stream is generated
  // once and used by all other queries").
  std::vector<OperatorId> new_ops;
  for (OperatorId o : template_ops) {
    if (!grounded_anywhere(catalog_->op(o).output)) new_ops.push_back(o);
  }

  // ---- macroQ: system-wide admission check. ----
  double needed_cpu = 0.0;
  for (OperatorId o : new_ops) needed_cpu += catalog_->op(o).cpu_cost;
  double spare_cpu = 0.0;
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    spare_cpu += cluster_->host(h).cpu - deployment_.CpuUsed(h);
  }
  if (needed_cpu > spare_cpu + 1e-9) {
    stats.wall_ms = watch.ElapsedMillis();
    return stats;  // rejected by macroQ
  }

  // ---- macroW: greedy per-operator placement. ----
  std::vector<std::pair<OperatorId, HostId>> assignment;
  for (OperatorId o : new_ops) {
    HostId best_host = kInvalidHost;
    std::pair<double, double> best_score = {lp::kInf, lp::kInf};
    for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
      // Partial replay (without client serving) tests feasibility of
      // this prefix; the score is taken on its scratch state.
      auto prefix = assignment;
      prefix.emplace_back(o, h);
      Result<ReplayResult> replay =
          Replay(*cluster_, *catalog_, deployment_, prefix,
                 catalog_->op(o).output);
      if (!replay.ok()) continue;
      const auto score = PlacementScore(*cluster_, replay->ctx.scratch);
      if (score < best_score) {
        best_score = score;
        best_host = h;
      }
    }
    if (best_host == kInvalidHost) {
      stats.wall_ms = watch.ElapsedMillis();
      return stats;  // macroW found no feasible host for this operator
    }
    assignment.emplace_back(o, best_host);
  }

  // ---- miniW: bounded local improvement over the assignment. ----
  for (int pass = 0; pass < options_.miniw_passes; ++pass) {
    bool improved = false;
    for (size_t i = 0; i < assignment.size(); ++i) {
      Result<ReplayResult> current =
          Replay(*cluster_, *catalog_, deployment_, assignment, query);
      if (!current.ok()) break;
      auto current_score = PlacementScore(*cluster_, current->ctx.scratch);
      HostId kept = assignment[i].second;
      for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
        if (h == kept) continue;
        assignment[i].second = h;
        Result<ReplayResult> moved =
            Replay(*cluster_, *catalog_, deployment_, assignment, query);
        if (moved.ok()) {
          const auto score = PlacementScore(*cluster_, moved->ctx.scratch);
          if (score < current_score) {
            current_score = score;
            kept = h;
            improved = true;
            continue;  // keep the move, try further hosts
          }
        }
        assignment[i].second = kept;
      }
    }
    if (!improved) break;
  }

  // ---- Final replay and commit. ----
  Result<ReplayResult> final_replay =
      Replay(*cluster_, *catalog_, deployment_, assignment, query);
  if (!final_replay.ok()) {
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  const Status valid = final_replay->ctx.scratch.Validate();
  if (!valid.ok()) {
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  deployment_ = std::move(final_replay->ctx.scratch);
  admitted_.push_back(query);
  stats.admitted = true;
  stats.wall_ms = watch.ElapsedMillis();
  return stats;
}

}  // namespace sqpr
