#ifndef SQPR_PLANNER_SQPR_SQPR_PLANNER_H_
#define SQPR_PLANNER_SQPR_SQPR_PLANNER_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
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
/// A side-effect-free admission solve, produced by ProposeAdmission —
/// possibly on a worker-pool thread — and applied later, on the thread
/// owning the planner, by CommitProposal. `delta` is relative to the
/// committed deployment the proposal was solved against; it is empty
/// when the solve did not admit the query.
struct AdmissionProposal {
  StreamId query = kInvalidStream;
  PlanningStats stats;
  DeploymentDelta delta;
  /// Deployment::structure_version() of the committed state the solve ran
  /// against. CommitProposal fails FailedPrecondition on *any* mismatch:
  /// between service barriers, structural mutations are the only way the
  /// solve-relevant state changes (rate installs happen solely inside
  /// barrier handlers, which retire every in-flight round first), so
  /// version equality attests the proposal's base state is bit-identical
  /// to the live state — the condition under which committing the delta
  /// equals re-solving inline. Anything weaker would let pipeline depth
  /// change committed plans.
  uint64_t base_version = 0;
  /// Solve by-products (root LP basis, pooled cycle cuts) harvested by
  /// the scratch solve, keyed by the solve's structural identity; null
  /// when no MILP ran (dedup or fast-path admissions). CommitProposal
  /// installs them into the committing planner's artifact table so the
  /// next solve of the same structure warm-starts.
  SolveKey artifact_key;
  std::shared_ptr<const SolveArtifacts> artifacts;
  /// The artifact-table entry for artifact_key the solve started from
  /// (null when there was none). CommitProposal also requires it to be
  /// the live entry: the root basis and pooled cuts steer which of
  /// several tied optima the hot-started, node-bounded search returns,
  /// so a solve seeded by other artifacts than an inline solve here
  /// would see is as stale as one solved against another deployment.
  std::shared_ptr<const SolveArtifacts> prior_artifacts;
};

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
    /// Snapshot overlays (MakeSnapshot) rebase onto a fresh shared core
    /// — one full deployment copy — once the mutation journal exceeds
    /// this many entries, keeping the per-snapshot copy O(changes since
    /// the last rebase) with an amortised-O(1) rebase cost per mutation.
    int snapshot_rebase_threshold = 256;
    /// Reuse built model skeletons across rounds of the same solve
    /// structure (SqprSolveCache): a cache hit patches bounds against the
    /// current deployment (SqprMip::Rebind) instead of rebuilding every
    /// row, and carries the previous round's root basis and pooled cycle
    /// cuts into the solve. Performance-only — a patched model is
    /// bit-identical to a fresh build.
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
  Result<std::vector<PlanningStats>> SubmitBatch(
      const std::vector<StreamId>& queries);

  /// Removes an admitted query and garbage-collects operators and flows
  /// that no longer support any served stream.
  Status RemoveQuery(StreamId query);

  /// Plan-reuse fast path (§II-C made O(1) by the service's PlanCache):
  /// admits `query` by adding only the client-serving arc at the first
  /// candidate host where the stream is already grounded through
  /// committed operators/flows and the serving NIC has headroom. No
  /// MILP solve; the availability fixpoint is computed once for the
  /// whole candidate list. Fails FailedPrecondition when the stream is
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

  // ---- Speculative solves (worker pool and loop thread alike). ----
  //
  // Concurrency contract: ProposeAdmission never mutates the planner or
  // the shared catalog/cluster, so any number of calls may run in
  // parallel on an *immutable* planner — provided (a) WarmCatalog(query)
  // was called first (it pre-interns every stream and operator a solve
  // for `query` can touch, making the solve's catalog accesses pure
  // reads — and, since StreamIds are assigned in interning order,
  // keeping id assignment at a deterministic point instead of at the
  // workers' mercy), and (b) nobody mutates the cluster or this planner
  // while the calls are in flight. Catalog *interning* may proceed
  // concurrently — it is internally synchronised and publishes entries
  // atomically (the planning service's speculative arrival solves rely
  // on exactly this) — but Catalog::UpdateBaseRate may not: it rewrites
  // published entries and requires all solves quiesced. The planning
  // service enforces all of this (see docs/ARCHITECTURE.md).

  /// Pre-interns the join closure of `query` (every subset stream and
  /// binary split operator) so that a subsequent solve for it — MILP
  /// relevant-set construction and greedy-fallback join-tree enumeration
  /// alike — performs no catalog writes. Call on the thread that owns
  /// event ordering (the service's loop thread): interning is
  /// thread-safe, but *when* it happens decides StreamId assignment,
  /// which replay determinism pins to logical points.
  Status WarmCatalog(StreamId query);

  /// Solves admission for `query` against a private copy of the
  /// committed state and returns the stats plus the deployment delta the
  /// solve would commit, without mutating the planner.
  Result<AdmissionProposal> ProposeAdmission(StreamId query) const;

  /// Applies a proposal's delta to the committed state. Returns
  /// FailedPrecondition when the deployment drifted since the proposal
  /// was solved such that the delta no longer applies cleanly (structural
  /// conflict, or the merged state fails the §III audit); the caller
  /// should then fall back to a fresh synchronous solve. A proposal whose
  /// solve rejected the query commits nothing and reports the rejection.
  Result<PlanningStats> CommitProposal(const AdmissionProposal& proposal);

  // ---- Copy-on-write snapshots (the worker pool's round inputs). ----

  /// What one MakeSnapshot call copied on the calling (loop) thread.
  struct SnapshotStats {
    /// A fresh shared core was captured (full deployment copy).
    bool rebased = false;
    /// Journal entries shipped as the snapshot's overlay.
    size_t overlay_entries = 0;
    /// Bytes the call copied: overlay + admitted list, plus the full
    /// deployment when it rebased.
    size_t bytes_copied = 0;
  };

  /// An immutable view of the planner at MakeSnapshot time: a shared
  /// core deployment (the last rebase point, shared by every snapshot
  /// since) plus a thin overlay of the mutations recorded after it.
  /// ProposeAdmission lazily materialises core+overlay into a full
  /// planner — once per snapshot, on the first worker that needs it,
  /// off the loop thread — and is safe to call from any number of
  /// threads concurrently (same contract as on the live planner:
  /// WarmCatalog must have run first).
  class Snapshot {
   public:
    Result<AdmissionProposal> ProposeAdmission(StreamId query) const;

   private:
    friend class SqprPlanner;
    Snapshot() = default;
    const SqprPlanner& Materialized() const;

    const Cluster* cluster_ = nullptr;
    Catalog* catalog_ = nullptr;
    Options options_;
    std::shared_ptr<const Deployment> core_;
    std::vector<DeploymentMutation> overlay_;
    std::vector<StreamId> admitted_;
    std::shared_ptr<SqprSolveCache> cache_;
    std::map<SolveKey, std::shared_ptr<const SolveArtifacts>> artifacts_;
    mutable std::once_flag once_;
    mutable std::unique_ptr<SqprPlanner> materialized_;
  };

  /// Captures the committed state as a Snapshot in O(changes since the
  /// last rebase): the core is a shared_ptr copy, the overlay is the
  /// deployment's mutation journal. Rebases (one full copy) when the
  /// journal exceeds Options::snapshot_rebase_threshold. Loop-thread
  /// only, like every other mutator.
  std::shared_ptr<const Snapshot> MakeSnapshot(SnapshotStats* stats = nullptr);

  // ---- Checkpoint support (src/service/checkpoint.h). ----

  /// Mutable access to the committed deployment, for restore-time
  /// reconstruction only: the restorer replays the checkpointed
  /// structure through the ordinary mutators, calls
  /// RefreshAccounting() to canonicalize the ledger floats, then
  /// reinstates the version counters. Never call while snapshots or
  /// proposals are in flight.
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
  /// stream.
  void GarbageCollect();

  const Cluster* cluster_;
  Catalog* catalog_;
  Options options_;
  Deployment deployment_;
  std::vector<StreamId> admitted_;
  /// Last rebase point of MakeSnapshot; outstanding snapshots keep it
  /// alive after the planner moves on. Null until the first snapshot.
  std::shared_ptr<const Deployment> snapshot_core_;

  // ---- Incremental-solve state (performance-only; see model_cache.h).
  // The model cache is shared — by pointer — with every scratch planner
  // and snapshot spawned from this one, so speculative solves on worker
  // threads benefit from (and refill) the same pool. The artifact table
  // is value-copied into scratch planners; updates flow back through the
  // proposal (AdmissionProposal::artifacts → CommitProposal), which
  // keeps installation on the committing thread in deterministic commit
  // order.
  std::shared_ptr<SqprSolveCache> cache_;
  std::map<SolveKey, std::shared_ptr<const SolveArtifacts>> artifacts_;
  /// Key, harvested artifacts and seeding artifacts of the most recent
  /// SubmitBatch MILP solve on *this* planner; ProposeAdmission moves
  /// them from its scratch planner into the proposal. Null when the last
  /// submission skipped the MILP.
  SolveKey last_artifact_key_;
  std::shared_ptr<const SolveArtifacts> last_artifacts_;
  std::shared_ptr<const SolveArtifacts> last_prior_artifacts_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_SQPR_SQPR_PLANNER_H_
