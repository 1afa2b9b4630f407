#ifndef SQPR_PLANNER_SQPR_SQPR_PLANNER_H_
#define SQPR_PLANNER_SQPR_SQPR_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/planner.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/model_cache.h"

namespace sqpr {

/// The SQPR planner (§IV): query admission, operator placement and reuse
/// solved as one reduced MILP per submission (Algorithm 1).
///
/// Key behaviours reproduced from the paper:
///  * dedup of already-admitted queries (line 3);
///  * problem reduction to S(q)/O(q) with all other decisions fixed
///    (line 4) — switchable off for the ablation benchmark;
///  * the no-drop constraint (IV.9) for admitted queries that fall inside
///    the relevant set, while still allowing their operators to migrate;
///  * a fixed per-query solver timeout after which the best incumbent is
///    used, or the query rejected if none admits it (§IV-C);
///  * batched submission with an n-fold timeout (Fig. 4(b));
///  * adaptive re-planning by removing and re-adding queries (§IV-B).
///
/// Every solve runs against the committed deployment and commits in
/// place: SqprMip::Commit applies the solution as the minimal
/// DeploymentDelta. A submission that admits none of its queries commits
/// nothing.
class SqprPlanner : public Planner {
 public:
  struct Options {
    /// Per-query CPLEX-analogue timeout. Batches get n× this budget.
    int64_t timeout_ms = 1000;
    /// Degraded-mode wall budget per MILP *solve* (docs/ARCHITECTURE.md
    /// "Durability & degraded modes"): unlike timeout_ms it is NOT
    /// batch-scaled — it caps how long any single solve may stall the
    /// service, however many queries ride in it. 0 disables. On breach
    /// the solver hands back its best incumbent (or the greedy fallback
    /// takes over) and PlanningStats::deadline_hit reports it. Negative
    /// values make the budget expire instantly — the deterministic
    /// every-solve-breaches lever the durability tests use.
    int64_t solve_deadline_ms = 0;
    int64_t max_nodes = 1000000;
    /// Optimality-gap tolerances handed to the MILP solver. Admission is
    /// worth λ1 (hundreds), so a small absolute gap can never flip an
    /// admission decision — it only stops the search from grinding
    /// through symmetric placements of equal quality.
    double mip_gap_abs = 0.1;
    double mip_gap_rel = 1e-4;
    /// §IV-A problem reduction; false re-plans every admitted query on
    /// each submission (the ablation configuration).
    bool reduce_problem = true;
    /// Re-audit the committed deployment after every commit. Cheap at
    /// experiment scale and catches planner bugs immediately.
    bool validate_commits = true;
    /// When the MILP hits its deadline without an admitting incumbent,
    /// fall back to the §V-A greedy placement before rejecting — the
    /// "combine heuristics with SQPR to increase satisfied queries"
    /// extension the paper proposes in §VII. The MILP keeps first say,
    /// so reuse/replanning quality is unchanged whenever the solver
    /// finishes in time.
    bool greedy_fallback = true;
    /// Reuse built model skeletons across solves of the same solve
    /// structure (SqprSolveCache): a cache hit patches bounds against the
    /// current deployment (SqprMip::Rebind) instead of rebuilding every
    /// row. Performance-only — a patched model is bit-identical to a
    /// fresh build.
    bool enable_model_cache = true;
    /// Debug/differential-test mode: after every cache hit, also build
    /// the model from scratch and SQPR_CHECK the patched copy is
    /// bit-identical (CheckModelEquals). Defeats the point of the cache;
    /// keep off outside tests.
    bool verify_incremental = false;
    SqprModelOptions model;
  };

  SqprPlanner(const Cluster* cluster, Catalog* catalog, Options options);

  std::string name() const override { return "sqpr"; }
  Result<PlanningStats> SubmitQuery(StreamId query) override;
  const Deployment& deployment() const override { return deployment_; }
  const std::vector<StreamId>& admitted_queries() const override {
    return admitted_;
  }

  /// Plans `queries` as one joint model with an |queries|-fold timeout
  /// (Fig. 4(b) batching). Per-query admission is reported positionally.
  ///
  /// Flow: (1) already-served queries are dropped (Algorithm 1 line 3);
  /// (2) the relevant sets S(q)/O(q) are computed; (3) the exact
  /// admission screen (AdmissionHopeless) rejects the batch outright,
  /// with nothing committed and zero solver effort, when no fresh query
  /// can be served by any plan the model accepts; (4) otherwise the
  /// model is checked out of the skeleton cache and rebound, or built,
  /// warm-started from the committed deployment and solved; (5) a
  /// solution admitting a fresh query commits as the minimal delta;
  /// (6) when the solve did not prove optimality, the greedy fallback
  /// tries the queries still rejected.
  Result<std::vector<PlanningStats>> SubmitBatch(
      const std::vector<StreamId>& queries);

  /// Removes an admitted query and garbage-collects operators and flows
  /// that no longer support any served stream.
  Status RemoveQuery(StreamId query);

  /// Plan-reuse fast path (§II-C made O(1) by the service's PlanCache):
  /// admits `query` by adding only the client-serving arc at the first
  /// candidate host where the stream is already grounded through
  /// committed operators/flows and the serving NIC has headroom. No
  /// MILP solve; each candidate costs one lookup of the deployment's
  /// maintained availability. Fails FailedPrecondition when the stream is
  /// not materialised at any candidate and ResourceExhausted when it is
  /// materialised but no candidate has serving headroom; neither
  /// failure mutates the deployment.
  Result<PlanningStats> AdmitMaterialized(StreamId query,
                                          const std::vector<HostId>& hosts);
  Result<PlanningStats> AdmitMaterialized(StreamId query, HostId host) {
    return AdmitMaterialized(query, std::vector<HostId>{host});
  }

  /// Host-failure fallout (§IV-C): removes every admitted query whose
  /// committed plan touches `host`, purges residual operators/flows on
  /// the host (redundant supports the per-query GC keeps), then evicts
  /// any query whose serving lost groundedness in the purge. Returns the
  /// removed queries, in eviction order, for the caller to re-admit.
  Result<std::vector<StreamId>> EvictHost(HostId host);

  /// Rebuilds the deployment's resource ledgers from the catalog's
  /// current costs — required after Catalog::UpdateBaseRate (§IV-B).
  void RefreshAccounting() { deployment_.RecomputeAggregates(); }

  /// §IV-B adaptive re-planning: conceptually removes the queries and
  /// re-admits them one by one (e.g. after resource-estimate drift).
  /// Returns one stats entry per query in order.
  Result<std::vector<PlanningStats>> ReplanQueries(
      const std::vector<StreamId>& queries);

  /// Pre-interns the join closure of `query` (every subset stream and
  /// binary split operator) so that a subsequent solve for it — MILP
  /// relevant-set construction and greedy-fallback join-tree enumeration
  /// alike — performs no catalog writes. *When* it runs decides StreamId
  /// assignment, which replay determinism pins to logical points (see
  /// docs/ARCHITECTURE.md).
  Status WarmCatalog(StreamId query);

  /// Appends every structural change the planner makes to its deployment
  /// from now on — admissions, removals with their garbage collection,
  /// host purges — to `log`, in commit order (null stops recording).
  /// The planning service drains it into its reuse index once per event.
  void set_change_log(DeploymentDelta* log) { change_log_ = log; }

  // ---- Checkpoint support (src/service/checkpoint.h). ----

  /// Mutable access to the committed deployment, for restore-time
  /// reconstruction only: the restorer replays the checkpointed
  /// structure through the ordinary mutators, calls
  /// RefreshAccounting() to canonicalize the ledger floats, then
  /// reinstates the version counters. Changes made through it are not
  /// recorded in the change log.
  Deployment* mutable_deployment() { return &deployment_; }

  /// Reinstates the admitted-query list (submission order) alongside a
  /// restored deployment.
  void RestoreAdmitted(std::vector<StreamId> admitted) {
    admitted_ = std::move(admitted);
  }

 private:
  struct RelevantSets {
    std::vector<StreamId> streams;
    std::vector<OperatorId> operators;
    std::vector<DemandSpec> demands;
  };

  /// Computes S(q)/O(q) (or the full sets when reduction is off) plus the
  /// demand list for a submission of `new_queries`.
  Result<RelevantSets> ComputeRelevantSets(
      const std::vector<StreamId>& new_queries);

  /// Removes operators/flows not (transitively) supporting any served
  /// stream, appending the removals to `removed`.
  void GarbageCollect(DeploymentDelta* removed);

  /// Applies `delta` to the committed deployment, audits the result
  /// (validate_commits) and records it in the change log.
  void CommitDelta(const DeploymentDelta& delta);
  void Record(const DeploymentDelta& delta) {
    if (change_log_ != nullptr) change_log_->Append(delta);
  }

  const Cluster* cluster_;
  Catalog* catalog_;
  Options options_;
  Deployment deployment_;
  std::vector<StreamId> admitted_;
  DeploymentDelta* change_log_ = nullptr;

  // Built model skeletons by solve structure (performance-only; see
  // model_cache.h).
  SqprSolveCache cache_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_SQPR_SQPR_PLANNER_H_
