#include "planner/sqpr/sqpr_planner.h"

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "milp/solver.h"
#include "obs/trace.h"
#include "plan/query_plan.h"
#include "planner/heuristic/heuristic_planner.h"

namespace sqpr {

SqprPlanner::SqprPlanner(const Cluster* cluster, Catalog* catalog,
                         Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog) {}

Result<SqprPlanner::RelevantSets> SqprPlanner::ComputeRelevantSets(
    const std::vector<StreamId>& new_queries) {
  SQPR_TRACE_SPAN("planner/relevant_sets");
  RelevantSets sets;
  std::set<StreamId> stream_set;
  std::set<OperatorId> op_set;

  auto add_closure = [&](StreamId q) -> Status {
    Result<Closure> closure = catalog_->JoinClosure(q);
    if (!closure.ok()) return closure.status();
    stream_set.insert(closure->streams.begin(), closure->streams.end());
    op_set.insert(closure->operators.begin(), closure->operators.end());
    return Status::OK();
  };

  for (StreamId q : new_queries) SQPR_RETURN_IF_ERROR(add_closure(q));
  if (!options_.reduce_problem) {
    // Full re-planning: every admitted query joins the model.
    for (StreamId q : admitted_) SQPR_RETURN_IF_ERROR(add_closure(q));
  }

  sets.streams.assign(stream_set.begin(), stream_set.end());
  sets.operators.assign(op_set.begin(), op_set.end());

  // Demands: new queries are optional (admission maximised); admitted
  // queries inside the relevant set carry the (IV.9) no-drop equality.
  std::set<StreamId> demanded;
  for (StreamId q : new_queries) {
    if (demanded.insert(q).second) {
      sets.demands.push_back({q, /*must_serve=*/false});
    }
  }
  for (StreamId q : admitted_) {
    if (stream_set.count(q) && demanded.insert(q).second) {
      sets.demands.push_back({q, /*must_serve=*/true});
    }
  }
  return sets;
}

Result<PlanningStats> SqprPlanner::SubmitQuery(StreamId query) {
  Result<std::vector<PlanningStats>> batch = SubmitBatch({query});
  if (!batch.ok()) return batch.status();
  return batch->front();
}

Result<std::vector<PlanningStats>> SqprPlanner::SubmitBatch(
    const std::vector<StreamId>& queries) {
  SQPR_TRACE_SPAN_ARGS(span, "planner/solve", "fresh_queries",
                       "relevant_streams");
  Stopwatch watch;
  std::vector<PlanningStats> stats(queries.size());

  // Algorithm 1 line 3: drop already-admitted duplicates from the solve.
  std::vector<StreamId> fresh;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (deployment_.ServingHost(queries[i]) != kInvalidHost) {
      stats[i].admitted = true;
      stats[i].already_served = true;
    } else {
      fresh.push_back(queries[i]);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (fresh.empty()) {
    for (auto& s : stats) s.wall_ms = watch.ElapsedMillis();
    return stats;
  }

  Result<RelevantSets> sets = ComputeRelevantSets(fresh);
  if (!sets.ok()) return sets.status();
  span.set_args(fresh.size(), sets->streams.size());

  // Exact early rejection: no plan the model would accept serves any
  // fresh query, so the solve could only prove that. Nothing commits
  // and the greedy fallback could not place them either.
  if (AdmissionHopeless(deployment_, sets->streams, sets->operators, fresh)) {
    const double elapsed = watch.ElapsedMillis();
    for (auto& s : stats) {
      s.wall_ms = elapsed;
      if (s.already_served) continue;
      s.screened = true;
      s.proved_optimal = true;
    }
    return stats;
  }

  // Structural identity of this solve: equal keys build bit-identical
  // skeletons, so a cached model can be rebound instead of rebuilt.
  SolveKey key;
  key.streams = sets->streams;
  key.operators = sets->operators;
  key.demands.reserve(sets->demands.size());
  for (const DemandSpec& d : sets->demands) {
    key.demands.emplace_back(d.stream, d.must_serve ? 1 : 0);
  }
  key.rate_epoch = catalog_->rate_epoch();
  key.spec_epoch = cluster_->spec_epoch();

  std::unique_ptr<SqprMip> mip_owned;
  bool patched = false;
  if (options_.enable_model_cache) mip_owned = cache_.Checkout(key);
  if (mip_owned != nullptr) {
    mip_owned->Rebind(deployment_);
    patched = true;
    if (options_.verify_incremental) {
      // Differential mode: the patched skeleton must match a fresh build
      // bit for bit — any divergence means a base-dependent quantity
      // leaked into the skeleton (or a patch missed a bound).
      SqprMip reference(deployment_, sets->streams, sets->operators,
                        sets->demands, options_.model);
      const Status same = mip_owned->CheckModelEquals(reference);
      SQPR_CHECK(same.ok()) << "patched model diverged from fresh build: "
                            << same.ToString();
    }
  } else {
    mip_owned = std::make_unique<SqprMip>(deployment_, sets->streams,
                                          sets->operators, sets->demands,
                                          options_.model);
  }
  SqprMip& mip = *mip_owned;
  const std::vector<double> warm = mip.WarmStart();

  SqprMip::CycleCutHandler cycle_handler(&mip);

  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(
      options_.timeout_ms * static_cast<int64_t>(fresh.size()));
  // The degraded-mode budget is per *solve*, deliberately not scaled by
  // the batch size: it caps how long any one solve can stall the
  // service event loop.
  solver_options.solve_deadline_ms = options_.solve_deadline_ms;
  solver_options.max_nodes = options_.max_nodes;
  solver_options.gap_abs = options_.mip_gap_abs;
  solver_options.gap_rel = options_.mip_gap_rel;
  solver_options.warm_start = &warm;
  if (options_.model.acyclicity == AcyclicityMode::kLazyCycleCuts) {
    solver_options.lazy = &cycle_handler;
  }

  milp::Solver solver;
  milp::MipResult result = solver.Solve(mip.mip(), solver_options);

  // Commit in place, as the minimal diff between the committed state and
  // the solution — but only when the solution admits a fresh query: a
  // solve that admits nothing leaves the deployment as it found it.
  double commit_ms = 0.0;
  DeploymentDelta solution;
  if (result.has_solution()) {
    solution = mip.SolutionDelta(result.x, deployment_);
    bool any_admitted = false;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].already_served || !mip.Serves(result.x, queries[i])) {
        continue;
      }
      stats[i].admitted = true;
      any_admitted = true;
      // A batch may contain duplicates; admit each stream once.
      if (std::find(admitted_.begin(), admitted_.end(), queries[i]) ==
          admitted_.end()) {
        admitted_.push_back(queries[i]);
      }
    }
    if (any_admitted) {
      Stopwatch commit_watch;
      CommitDelta(solution);
      commit_ms += commit_watch.ElapsedMillis();
      solution = DeploymentDelta();
    }
  }

  // §VII greedy fallback: queries the deadline-bound solver could not
  // place may still have a straightforward single-host plan. It runs on
  // a copy carrying the solution (committed or not), and what it admits
  // commits as one diff of the relevant sets, which contain every
  // stream and operator of the queries' join trees.
  if (options_.greedy_fallback &&
      result.status != milp::MipStatus::kOptimal) {
    SQPR_TRACE_SPAN("planner/greedy");
    std::unique_ptr<Deployment> trial;
    bool any_admitted = false;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].admitted) continue;
      if (trial == nullptr) {
        trial = std::make_unique<Deployment>(deployment_);
        SQPR_CHECK_OK(ApplyDeploymentDelta(solution, trial.get()));
      }
      if (trial->ServingHost(queries[i]) != kInvalidHost) continue;
      if (GreedyAdmit(*cluster_, catalog_, queries[i],
                      options_.model.weights, trial.get())) {
        stats[i].admitted = true;
        stats[i].admitted_via_heuristic = true;
        admitted_.push_back(queries[i]);
        any_admitted = true;
      }
    }
    if (any_admitted) {
      Stopwatch commit_watch;
      CommitDelta(mip.DeltaTo(deployment_, *trial));
      commit_ms += commit_watch.ElapsedMillis();
    }
  }

  // Return the skeleton to the pool under `key`, so a rate/spec epoch
  // bump or a different relevant set makes it unreachable, not stale.
  if (options_.enable_model_cache) {
    cache_.Return(key, std::move(mip_owned));
  }

  const double elapsed = watch.ElapsedMillis();
  for (auto& s : stats) {
    s.wall_ms = elapsed;
    s.solver_nodes = result.nodes;
    s.lp_iterations = result.lp_counters.iterations;
    s.lp_factorizations = result.lp_counters.factorizations;
    s.lp_dual_solves = result.lp_counters.dual_solves;
    s.lp_slack_start_iterations = result.lp_counters.slack_start_iterations;
    s.rejected_candidates = result.rejected_candidates;
    s.objective = result.has_solution() ? result.objective : 0.0;
    s.proved_optimal = result.status == milp::MipStatus::kOptimal;
    s.deadline_hit = result.deadline_hit;
    s.model_patched = patched;
    s.model_rebuilt = !patched;
    s.commit_ms = commit_ms;
  }
  return stats;
}

void SqprPlanner::CommitDelta(const DeploymentDelta& delta) {
  SQPR_TRACE_SPAN("planner/commit");
  SQPR_CHECK_OK(ApplyDeploymentDelta(delta, &deployment_));
  if (options_.validate_commits) {
    const Status valid = deployment_.Validate();
    SQPR_CHECK(valid.ok()) << "commit broke deployment invariants: "
                           << valid.ToString();
  }
  Record(delta);
}

Status SqprPlanner::RemoveQuery(StreamId query) {
  auto it = std::find(admitted_.begin(), admitted_.end(), query);
  if (it == admitted_.end()) {
    return Status::NotFound("query not admitted");
  }
  admitted_.erase(it);
  const HostId server = deployment_.ServingHost(query);
  SQPR_RETURN_IF_ERROR(deployment_.ClearServing(query));
  DeploymentDelta removed;
  removed.serving_changes.push_back({query, server, kInvalidHost});
  GarbageCollect(&removed);
  Record(removed);
  if (options_.validate_commits) {
    SQPR_RETURN_IF_ERROR(deployment_.Validate());
  }
  return Status::OK();
}

Result<PlanningStats> SqprPlanner::AdmitMaterialized(
    StreamId query, const std::vector<HostId>& hosts) {
  Stopwatch watch;
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  for (HostId host : hosts) {
    if (host < 0 || host >= cluster_->num_hosts()) {
      return Status::InvalidArgument("unknown host");
    }
  }
  PlanningStats stats;
  if (deployment_.ServingHost(query) != kInvalidHost) {
    stats.admitted = true;
    stats.already_served = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  bool any_grounded = false;
  for (HostId host : hosts) {
    if (!deployment_.Grounded(host, query)) continue;
    any_grounded = true;
    if (!deployment_.CanServe(query, host)) continue;
    SQPR_RETURN_IF_ERROR(deployment_.SetServing(query, host));
    admitted_.push_back(query);
    if (options_.validate_commits) {
      const Status valid = deployment_.Validate();
      if (!valid.ok()) {
        admitted_.pop_back();
        SQPR_CHECK_OK(deployment_.ClearServing(query));
        return valid;
      }
    }
    DeploymentDelta served;
    served.serving_changes.push_back({query, kInvalidHost, host});
    Record(served);
    stats.admitted = true;
    stats.via_cache = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  if (any_grounded) {
    return Status::ResourceExhausted(
        "no serving NIC headroom on any materialising host");
  }
  return Status::FailedPrecondition(
      "stream not materialised at any candidate host");
}

Result<std::vector<StreamId>> SqprPlanner::EvictHost(HostId host) {
  if (host < 0 || host >= cluster_->num_hosts()) {
    return Status::InvalidArgument("unknown host");
  }

  // Pass 1: queries whose extracted plan runs through the host. The
  // removals may legitimately leave the ledgers over a (shrunken) budget
  // mid-flight, so ResourceExhausted from the post-removal audit is not
  // fatal — the removal itself has been applied.
  std::vector<StreamId> affected;
  for (StreamId q : admitted_) {
    if (PlanUsesHost(deployment_, q, host)) affected.push_back(q);
  }
  for (StreamId q : affected) {
    const Status st = RemoveQuery(q);
    if (!st.ok() && !st.IsResourceExhausted() && !st.IsNotFound()) return st;
  }

  // Pass 2: purge residual allocations — redundant supports of surviving
  // queries that the conservative per-query GC keeps alive.
  DeploymentDelta purged;
  const std::vector<OperatorId> residual_ops(
      deployment_.OperatorsOn(host).begin(),
      deployment_.OperatorsOn(host).end());
  for (OperatorId o : residual_ops) {
    SQPR_RETURN_IF_ERROR(deployment_.RemoveOperator(host, o));
    purged.ops_removed.emplace_back(host, o);
  }
  for (StreamId s : deployment_.FlowStreams()) {
    const auto flows = deployment_.FlowsOf(s);  // copy: mutation below
    for (const auto& [from, to] : flows) {
      if (from == host || to == host) {
        SQPR_RETURN_IF_ERROR(deployment_.RemoveFlow(from, to, s));
        purged.flows_removed.emplace_back(from, to, s);
      }
    }
  }
  Record(purged);

  // Pass 3: the purge may have been the sole support of a surviving
  // query that extraction happened to route around — evict those too,
  // then GC the now-unsupported residue. Which queries lost their
  // serving is read from the purged deployment before the first
  // removal changes it.
  std::vector<StreamId> unsupported;
  for (StreamId q : admitted_) {
    const HostId server = deployment_.ServingHost(q);
    if (server == kInvalidHost || !deployment_.Grounded(server, q)) {
      unsupported.push_back(q);
    }
  }
  for (StreamId q : unsupported) {
    const Status st = RemoveQuery(q);
    if (!st.ok() && !st.IsResourceExhausted() && !st.IsNotFound()) return st;
    affected.push_back(q);
  }
  DeploymentDelta collected;
  GarbageCollect(&collected);
  Record(collected);
  if (options_.validate_commits) {
    const Status valid = deployment_.Validate();
    if (!valid.ok() && !valid.IsResourceExhausted()) return valid;
  }
  return affected;
}

void SqprPlanner::GarbageCollect(DeploymentDelta* removed) {
  const Catalog& catalog = *catalog_;

  // Mark phase: (host, stream) needs seeded by the served streams; every
  // grounded support of a needed pair is kept (conservative: redundant
  // supports of live streams survive). The marks are flat per host:
  // needed[h] lists the streams needed at h, ascending.
  std::vector<std::vector<StreamId>> needed(cluster_->num_hosts());
  auto is_needed = [&](HostId h, StreamId s) {
    return std::binary_search(needed[h].begin(), needed[h].end(), s);
  };
  std::vector<std::pair<HostId, StreamId>> worklist;
  auto need = [&](HostId h, StreamId s) {
    auto pos = std::lower_bound(needed[h].begin(), needed[h].end(), s);
    if (pos != needed[h].end() && *pos == s) return;
    needed[h].insert(pos, s);
    worklist.emplace_back(h, s);
  };
  for (StreamId s : deployment_.ServedStreams()) {
    need(deployment_.ServingHost(s), s);
  }
  while (!worklist.empty()) {
    const auto [h, s] = worklist.back();
    worklist.pop_back();
    // Local producers with grounded inputs.
    for (OperatorId o : catalog.ProducersOf(s)) {
      if (!deployment_.RunsOperator(h, o) ||
          !deployment_.InputsGrounded(h, o)) {
        continue;
      }
      for (StreamId in : catalog.op(o).inputs) need(h, in);
    }
    // Incoming flows from grounded senders.
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (to == h && deployment_.Grounded(from, s)) need(from, s);
    }
  }

  // Sweep phase: an operator is live iff its output is needed at its
  // host and its inputs are grounded there, a flow iff its stream is
  // needed at the receiver and grounded at the sender — exactly the
  // supports the mark kept. Every verdict is taken before the first
  // removal changes groundedness.
  std::vector<std::pair<HostId, OperatorId>> dead_ops;
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    for (OperatorId o : deployment_.OperatorsOn(h)) {
      if (!is_needed(h, catalog.op(o).output) ||
          !deployment_.InputsGrounded(h, o)) {
        dead_ops.emplace_back(h, o);
      }
    }
  }
  std::vector<std::tuple<HostId, HostId, StreamId>> dead_flows;
  for (StreamId s : deployment_.FlowStreams()) {
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (!is_needed(to, s) || !deployment_.Grounded(from, s)) {
        dead_flows.emplace_back(from, to, s);
      }
    }
  }
  for (const auto& [h, o] : dead_ops) {
    SQPR_CHECK_OK(deployment_.RemoveOperator(h, o));
  }
  for (const auto& [from, to, s] : dead_flows) {
    SQPR_CHECK_OK(deployment_.RemoveFlow(from, to, s));
  }
  removed->ops_removed.insert(removed->ops_removed.end(), dead_ops.begin(),
                              dead_ops.end());
  removed->flows_removed.insert(removed->flows_removed.end(),
                                dead_flows.begin(), dead_flows.end());
}

Status SqprPlanner::WarmCatalog(StreamId query) {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " + std::to_string(query));
  }
  SQPR_TRACE_SPAN("planner/warm_catalog");
  // JoinClosure interns every subset join stream and every binary split
  // operator of the leaf set — the complete universe both the reduced
  // MILP (ComputeRelevantSets) and the greedy fallback (join-tree
  // enumeration) can reference. Afterwards, solves for this query only
  // ever *find* catalog entries.
  return catalog_->JoinClosure(query).status();
}

Result<std::vector<PlanningStats>> SqprPlanner::ReplanQueries(
    const std::vector<StreamId>& queries) {
  // §IV-B: remove the drifted queries, then re-admit them one by one
  // against the slimmed-down deployment.
  for (StreamId q : queries) {
    const Status removed = RemoveQuery(q);
    if (!removed.ok() && !removed.IsNotFound()) return removed;
  }
  std::vector<PlanningStats> all;
  all.reserve(queries.size());
  for (StreamId q : queries) {
    Result<PlanningStats> stats = SubmitQuery(q);
    if (!stats.ok()) return stats.status();
    all.push_back(*stats);
  }
  return all;
}

}  // namespace sqpr
