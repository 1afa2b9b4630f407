#include "planner/sqpr/sqpr_planner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/logging.h"
#include "milp/solver.h"
#include "obs/trace.h"
#include "plan/query_plan.h"
#include "planner/heuristic/heuristic_planner.h"

namespace sqpr {
namespace {

/// Payoff gate for pooled-cut replay: every replayed cut is a candidate
/// extra row in every node LP, so replay only engages when the model has
/// at least this many rows per pooled cut. Below the gate the lazy DFS
/// rediscovers cycles cheaply and replay is a measured net loss.
constexpr int kMinRowsPerPooledCut = 8;

}  // namespace

SqprPlanner::SqprPlanner(const Cluster* cluster, Catalog* catalog,
                         Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog),
      cache_(std::make_shared<SqprSolveCache>()) {}

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

  // Structural identity of this solve: equal keys build bit-identical
  // skeletons, so a cached model can be rebound instead of rebuilt and
  // the previous round's basis/cuts can seed the search.
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
  if (options_.enable_model_cache && cache_ != nullptr) {
    mip_owned = cache_->Checkout(key);
  }
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

  // Prior-round artifacts for this structure, if any. Two warm levers,
  // each gated deterministically (never on measured wall time — replay
  // and fingerprint determinism depend on identical decisions at every
  // worker count):
  //  * the root basis warm-starts the first LP (discarded inside the
  //    solver if presolve keeps different columns this round);
  //  * pooled cycle cuts become a *separation source* for the lazy
  //    handler, but only when the model is large enough that extra rows
  //    can pay for themselves (bulk up-front injection measured slower
  //    than cold on small models: +33% rows in every node LP for ~5%
  //    fewer nodes).
  std::shared_ptr<const SolveArtifacts> prior;
  auto art_it = artifacts_.find(key);
  if (art_it != artifacts_.end()) prior = art_it->second;

  auto next_art = std::make_shared<SolveArtifacts>();
  if (prior != nullptr) next_art->cuts = prior->cuts;
  SqprMip::CycleCutHandler cycle_handler(&mip);
  cycle_handler.set_harvest(&next_art->cuts);
  if (prior != nullptr && !prior->cuts.empty() &&
      mip.mip().lp.num_rows() >=
          kMinRowsPerPooledCut * static_cast<int>(prior->cuts.size())) {
    cycle_handler.set_pool(&prior->cuts);
  }

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
  if (prior != nullptr && !prior->root_basis.empty()) {
    solver_options.root_warm_basis = &prior->root_basis;
    solver_options.root_warm_basis_columns = &prior->root_basis_columns;
  }

  span.set_args(fresh.size(), sets->streams.size());
  milp::Solver solver;
  milp::MipResult result = solver.Solve(mip.mip(), solver_options);

  if (result.has_solution()) {
    SQPR_CHECK_OK(mip.Commit(result.x, &deployment_));
    if (options_.validate_commits) {
      const Status valid = deployment_.Validate();
      SQPR_CHECK(valid.ok()) << "commit broke deployment invariants: "
                             << valid.ToString();
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].already_served) continue;
      if (mip.Serves(result.x, queries[i]) ||
          deployment_.ServingHost(queries[i]) != kInvalidHost) {
        stats[i].admitted = true;
        // A batch may contain duplicates; admit each stream once.
        if (std::find(admitted_.begin(), admitted_.end(), queries[i]) ==
            admitted_.end()) {
          admitted_.push_back(queries[i]);
        }
      }
    }
  }

  // Harvest this round's by-products for the next solve of the same
  // structure, and return the skeleton to the pool. Both are keyed by
  // `key`, so a rate/spec epoch bump or a different relevant set makes
  // them unreachable rather than stale.
  next_art->root_basis = std::move(result.root_basis);
  next_art->root_basis_columns = std::move(result.root_basis_columns);
  last_artifact_key_ = key;
  last_prior_artifacts_ = prior;
  last_artifacts_ = next_art;
  artifacts_[key] = std::move(next_art);
  if (artifacts_.size() > 64) artifacts_.clear();
  if (options_.enable_model_cache && cache_ != nullptr) {
    cache_->Return(key, std::move(mip_owned));
  }

  // §VII greedy fallback: queries the deadline-bound solver could not
  // place may still have a straightforward single-host plan.
  if (options_.greedy_fallback &&
      result.status != milp::MipStatus::kOptimal) {
    SQPR_TRACE_SPAN("planner/greedy");
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].admitted) continue;
      if (deployment_.ServingHost(queries[i]) != kInvalidHost) continue;
      if (GreedyAdmit(*cluster_, catalog_, queries[i],
                      options_.model.weights, &deployment_)) {
        stats[i].admitted = true;
        stats[i].admitted_via_heuristic = true;
        admitted_.push_back(queries[i]);
        if (options_.validate_commits) {
          const Status valid = deployment_.Validate();
          SQPR_CHECK(valid.ok()) << valid.ToString();
        }
      }
    }
  }

  const double elapsed = watch.ElapsedMillis();
  for (auto& s : stats) {
    s.wall_ms = elapsed;
    s.solver_nodes = result.nodes;
    s.lp_iterations = result.lp_counters.iterations;
    s.objective = result.has_solution() ? result.objective : 0.0;
    s.proved_optimal = result.status == milp::MipStatus::kOptimal;
    s.deadline_hit = result.deadline_hit;
    s.model_patched = patched;
    s.model_rebuilt = !patched;
    s.warm_started = result.used_warm_basis;
    s.basis_discarded = result.warm_basis_discarded;
  }
  return stats;
}

Status SqprPlanner::RemoveQuery(StreamId query) {
  auto it = std::find(admitted_.begin(), admitted_.end(), query);
  if (it == admitted_.end()) {
    return Status::NotFound("query not admitted");
  }
  admitted_.erase(it);
  SQPR_RETURN_IF_ERROR(deployment_.ClearServing(query));
  GarbageCollect();
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
  const GroundedMap grounded = deployment_.GroundedAvailability();
  bool any_grounded = false;
  for (HostId host : hosts) {
    if (!grounded.at(host, query)) continue;
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
  const std::vector<OperatorId> residual_ops(
      deployment_.OperatorsOn(host).begin(),
      deployment_.OperatorsOn(host).end());
  for (OperatorId o : residual_ops) {
    SQPR_RETURN_IF_ERROR(deployment_.RemoveOperator(host, o));
  }
  for (StreamId s = 0; s < catalog_->num_streams(); ++s) {
    const auto flows = deployment_.FlowsOf(s);  // copy: mutation below
    for (const auto& [from, to] : flows) {
      if (from == host || to == host) {
        SQPR_RETURN_IF_ERROR(deployment_.RemoveFlow(from, to, s));
      }
    }
  }

  // Pass 3: the purge may have been the sole support of a surviving
  // query that extraction happened to route around — evict those too,
  // then GC the now-unsupported residue.
  const GroundedMap grounded = deployment_.GroundedAvailability();
  const std::vector<StreamId> admitted_snapshot = admitted_;
  for (StreamId q : admitted_snapshot) {
    const HostId server = deployment_.ServingHost(q);
    if (server == kInvalidHost || !grounded.at(server, q)) {
      const Status st = RemoveQuery(q);
      if (!st.ok() && !st.IsResourceExhausted() && !st.IsNotFound()) {
        return st;
      }
      affected.push_back(q);
    }
  }
  GarbageCollect();
  if (options_.validate_commits) {
    const Status valid = deployment_.Validate();
    if (!valid.ok() && !valid.IsResourceExhausted()) return valid;
  }
  return affected;
}

void SqprPlanner::GarbageCollect() {
  const Catalog& catalog = *catalog_;
  const GroundedMap grounded = deployment_.GroundedAvailability();

  // Mark phase: (host, stream) needs seeded by the served streams; every
  // grounded support of a needed pair is kept (conservative: redundant
  // supports of live streams survive).
  std::set<std::pair<HostId, StreamId>> needed;
  std::vector<std::pair<HostId, StreamId>> worklist;
  for (StreamId s : deployment_.ServedStreams()) {
    const HostId h = deployment_.ServingHost(s);
    if (needed.insert({h, s}).second) worklist.push_back({h, s});
  }
  std::set<std::pair<HostId, OperatorId>> live_ops;
  std::set<std::tuple<HostId, HostId, StreamId>> live_flows;
  while (!worklist.empty()) {
    const auto [h, s] = worklist.back();
    worklist.pop_back();
    // Local producers with grounded inputs.
    for (OperatorId o : deployment_.OperatorsOn(h)) {
      const OperatorInfo& op = catalog.op(o);
      if (op.output != s) continue;
      bool ok = true;
      for (StreamId in : op.inputs) {
        if (!grounded.at(h, in)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (live_ops.insert({h, o}).second) {
        for (StreamId in : op.inputs) {
          if (needed.insert({h, in}).second) worklist.push_back({h, in});
        }
      }
    }
    // Incoming flows from grounded senders.
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (to != h || !grounded.at(from, s)) continue;
      if (live_flows.insert({from, to, s}).second) {
        if (needed.insert({from, s}).second) worklist.push_back({from, s});
      }
    }
  }

  // Sweep phase.
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    std::vector<OperatorId> dead;
    for (OperatorId o : deployment_.OperatorsOn(h)) {
      if (live_ops.count({h, o}) == 0) dead.push_back(o);
    }
    for (OperatorId o : dead) {
      SQPR_CHECK_OK(deployment_.RemoveOperator(h, o));
    }
  }
  std::vector<std::tuple<HostId, HostId, StreamId>> dead_flows;
  for (StreamId s = 0; s < grounded.num_streams; ++s) {
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (live_flows.count({from, to, s}) == 0) {
        dead_flows.emplace_back(from, to, s);
      }
    }
  }
  for (const auto& [from, to, s] : dead_flows) {
    SQPR_CHECK_OK(deployment_.RemoveFlow(from, to, s));
  }
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

Result<AdmissionProposal> SqprPlanner::ProposeAdmission(
    StreamId query) const {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " + std::to_string(query));
  }
  SQPR_TRACE_SPAN("planner/propose");
  // Solve on a private scratch planner seeded with the committed state;
  // *this stays untouched, so concurrent proposals may share it.
  SqprPlanner scratch(cluster_, catalog_, options_);
  scratch.deployment_ = deployment_;
  scratch.admitted_ = admitted_;
  // Share the model pool (internally synchronised; Checkout is
  // exclusive) and copy the artifact table so the scratch solve can
  // warm-start; its own harvest travels back inside the proposal.
  scratch.cache_ = cache_;
  scratch.artifacts_ = artifacts_;

  AdmissionProposal proposal;
  proposal.query = query;
  proposal.base_version = deployment_.structure_version();
  Result<PlanningStats> stats = scratch.SubmitQuery(query);
  if (!stats.ok()) return stats.status();
  proposal.stats = *stats;
  proposal.artifact_key = scratch.last_artifact_key_;
  proposal.artifacts = std::move(scratch.last_artifacts_);
  proposal.prior_artifacts = std::move(scratch.last_prior_artifacts_);
  if (stats->admitted && !stats->already_served) {
    proposal.delta = DiffDeployments(deployment_, scratch.deployment_);
  }
  return proposal;
}

std::shared_ptr<const SqprPlanner::Snapshot> SqprPlanner::MakeSnapshot(
    SnapshotStats* stats) {
  SnapshotStats local;
  // Rebase when this is the first snapshot ever (journalling starts
  // here — before that the journal is not anchored to any core), the
  // overlay has outgrown the threshold, or the journal overflowed its
  // bound between snapshots (a truncated epoch cannot replay). The
  // rebase pays one full copy; amortised over the >= threshold
  // mutations that forced it.
  const size_t threshold =
      static_cast<size_t>(std::max(0, options_.snapshot_rebase_threshold));
  const bool rebase = snapshot_core_ == nullptr ||
                      !deployment_.journal_enabled() ||
                      deployment_.journal_truncated() ||
                      deployment_.journal().size() > threshold;
  if (rebase) {
    // The journal bound doubles the threshold so back-to-back
    // snapshots straddling exactly `threshold` mutations rebase via
    // the size check, not the truncation path; past 2x with no
    // snapshot draining it, recording stops and memory stays bounded.
    deployment_.EnableJournal(2 * threshold + 1);
    snapshot_core_ = std::make_shared<const Deployment>(deployment_);
    local.rebased = true;
    local.bytes_copied += deployment_.ApproxSizeBytes();
  }
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->cluster_ = cluster_;
  snap->catalog_ = catalog_;
  snap->options_ = options_;
  snap->core_ = snapshot_core_;
  snap->overlay_ = deployment_.journal();
  snap->admitted_ = admitted_;
  snap->cache_ = cache_;
  snap->artifacts_ = artifacts_;
  local.overlay_entries = snap->overlay_.size();
  local.bytes_copied += snap->overlay_.size() * sizeof(DeploymentMutation) +
                        snap->admitted_.size() * sizeof(StreamId);
  if (stats != nullptr) *stats = local;
  return snap;
}

const SqprPlanner& SqprPlanner::Snapshot::Materialized() const {
  std::call_once(once_, [this] {
    SQPR_TRACE_SPAN_ARGS(span, "service/snapshot.materialize",
                         "overlay_entries", nullptr);
    span.set_args(overlay_.size());
    auto planner =
        std::make_unique<SqprPlanner>(cluster_, catalog_, options_);
    planner->deployment_ = *core_;
    // Replaying the journal suffix reproduces the live deployment at
    // MakeSnapshot time bit for bit (see DeploymentMutation) — the same
    // state the retired deep copy used to capture, at O(changes) loop
    // -thread cost instead of O(deployment).
    SQPR_CHECK_OK(planner->deployment_.ApplyJournal(overlay_));
    planner->admitted_ = admitted_;
    planner->cache_ = cache_;
    planner->artifacts_ = artifacts_;
    materialized_ = std::move(planner);
  });
  return *materialized_;
}

Result<AdmissionProposal> SqprPlanner::Snapshot::ProposeAdmission(
    StreamId query) const {
  return Materialized().ProposeAdmission(query);
}

Result<PlanningStats> SqprPlanner::CommitProposal(
    const AdmissionProposal& proposal) {
  if (proposal.query < 0 || proposal.query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " +
                                   std::to_string(proposal.query));
  }
  SQPR_TRACE_SPAN("planner/commit");
  PlanningStats stats = proposal.stats;
  if (deployment_.ServingHost(proposal.query) != kInvalidHost) {
    // Someone (an earlier commit, a cache fast path) admitted an
    // equivalent query meanwhile: free dedup, nothing to apply. A fresh
    // inline solve at this point would dedup identically — and would
    // not have run a MILP — so taking this path before the version gate
    // (and installing no artifacts) is exactly what pipeline-depth
    // invariance requires.
    stats.admitted = true;
    stats.already_served = true;
    return stats;
  }
  if (proposal.base_version != deployment_.structure_version()) {
    // Strict staleness gate: the committed state structurally diverged
    // from the state the proposal was solved against, so the delta may
    // encode decisions (placements, reuse) a fresh solve of the live
    // state would not make. Nothing is adopted — not even the solve
    // artifacts: a stale solve's root basis and pooled cuts steer the
    // node-bounded search of later solves, so installing them would let
    // pipeline depth change which incumbents those solves stop on. The
    // caller re-solves inline; that solve installs its own artifacts at
    // this same logical point.
    return Status::FailedPrecondition(
        "proposal for stream " + std::to_string(proposal.query) +
        " solved against structure version " +
        std::to_string(proposal.base_version) + ", committed state is at " +
        std::to_string(deployment_.structure_version()));
  }
  if (proposal.artifacts != nullptr) {
    // Same gate for the solve's other input: the artifacts that seeded
    // it. A commit of the same structure since the proposal's snapshot
    // (an earlier round, at depth > 1) replaced them.
    const auto live = artifacts_.find(proposal.artifact_key);
    const SolveArtifacts* live_prior =
        live == artifacts_.end() ? nullptr : live->second.get();
    if (live_prior != proposal.prior_artifacts.get()) {
      return Status::FailedPrecondition(
          "proposal for stream " + std::to_string(proposal.query) +
          " was seeded by superseded solve artifacts");
    }
    // Both inputs matched: the proposal's base state and seed are those
    // of an inline solve here, so its by-products are exactly what that
    // solve would have harvested. Install on the committing thread, in
    // commit order, to keep the artifact table identical across worker
    // counts and pipeline depths.
    artifacts_[proposal.artifact_key] = proposal.artifacts;
    if (artifacts_.size() > 64) artifacts_.clear();
  }
  if (!stats.admitted || stats.already_served) {
    // The solve rejected the query — or saw it as already served against
    // a state where it no longer is. Either way nothing commits; report
    // a rejection so the caller can re-plan it.
    stats.admitted = false;
    stats.already_served = false;
    return stats;
  }

  // Merge into a scratch copy and audit before adopting, so a conflict
  // leaves the committed state untouched.
  Deployment merged = deployment_;
  const Status applied = ApplyDeploymentDelta(proposal.delta, &merged);
  if (!applied.ok()) {
    return Status::FailedPrecondition(
        "proposal for stream " + std::to_string(proposal.query) +
        " no longer applies: " + applied.ToString());
  }
  const Status valid = merged.Validate();
  if (!valid.ok()) {
    return Status::FailedPrecondition(
        "proposal for stream " + std::to_string(proposal.query) +
        " invalid against drifted state: " + valid.ToString());
  }
  deployment_ = std::move(merged);
  if (std::find(admitted_.begin(), admitted_.end(), proposal.query) ==
      admitted_.end()) {
    admitted_.push_back(proposal.query);
  }
  return stats;
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
