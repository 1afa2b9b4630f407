#ifndef SQPR_SERVICE_PLANNING_SERVICE_H_
#define SQPR_SERVICE_PLANNING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/task_queue.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "monitor/resource_monitor.h"
#include "planner/sqpr/sqpr_planner.h"
#include "service/event_loop.h"
#include "service/plan_cache.h"
#include "service/replan_policy.h"
#include "sim/cluster_sim.h"
#include "telemetry/measurement_engine.h"

namespace sqpr {

/// Stall/SLO watchdog thresholds, all wall-clock milliseconds and all
/// off (0) by default. The service's decisions run off the virtual
/// clock; these budgets watch the *wall* side — how long one virtual
/// instant takes the loop thread — and count breaches in ServiceStats.
/// Pure observation: breaches never gate behaviour, and with budgets
/// set to extremes (tiny => every sample breaches, huge => none) the
/// counts are deterministic because the sample counts are.
struct WatchdogOptions {
  /// Event-loop stall detector: one Step() whose wall time exceeds this
  /// counts as a stall (ServiceStats::loop_stalls, worst_stall_ms) —
  /// the virtual clock stood still while the wall clock ran away.
  double event_stall_ms = 0.0;
  /// Per-stage round-latency budgets, one per ServiceStats histogram;
  /// each sample over budget bumps the matching *_budget_breaches.
  double admit_budget_ms = 0.0;
  double solve_budget_ms = 0.0;
  double commit_budget_ms = 0.0;
  double barrier_budget_ms = 0.0;
  double measure_budget_ms = 0.0;
};

/// Configuration of the continuous planning service.
struct ServiceOptions {
  SqprPlanner::Options planner;
  DriftOptions drift;
  ReplanPolicyOptions replan;
  /// Consult the plan-reuse cache on arrivals: exact hits admit without
  /// a solve (dedup or one serving arc); misses fall through to the
  /// reduced MILP.
  bool use_plan_cache = true;
  /// After a host (re)joins, retry recently rejected queries through the
  /// bounded re-planning rounds.
  bool retry_rejected_on_join = true;
  /// Cap on the rejected queries remembered for such retries.
  int max_rejected_remembered = 64;
  /// §IV-C closed loop: every `telemetry.measure_period` ticks the
  /// service measures its *own* committed deployment (ClusterSim under
  /// the telemetry rate model's ground-truth rates) and feeds the result
  /// through the same monitor path scripted kMonitorReport events take —
  /// drift detection and re-planning with zero scripted measurements.
  /// kRateDirective events steer the ground truth.
  bool closed_loop = false;
  TelemetryOptions telemetry;
  /// Test-only injection point: invoked on the loop thread between an
  /// arrival's speculative ProposeAdmission and its CommitProposal —
  /// the one propose/commit adjacency the pipelined service still
  /// guarantees by construction. Mutating the planner here forces the
  /// strict version gate to bounce the arrival's proposal, driving the
  /// conflict-fallback path deterministically at any pipeline depth
  /// (service_test uses it at depth 1). Never invoked for the
  /// fallback's own re-solve. Leave null outside tests.
  std::function<void(SqprPlanner&)> inject_between_propose_and_commit;
  /// Decision audit journal (null = auditing off, zero cost). Emission
  /// happens on the loop thread at commit points only, so the canonical
  /// record stream inherits the determinism contract: byte-identical
  /// across workers {0,1,4} x pipeline depth {1,2,4} (see
  /// obs/audit.h and docs/ARCHITECTURE.md §7). Must outlive the
  /// service. Auditing reads state and never gates behaviour — replay
  /// fingerprints are bit-identical with it on or off.
  obs::AuditJournal* audit = nullptr;
  /// Stall/SLO watchdog budgets (all off by default).
  WatchdogOptions watchdog;
};

/// What happened while processing one event.
struct EventOutcome {
  Event event;
  /// Arrival disposition (meaningful for kQueryArrival only).
  bool admitted = false;
  bool already_served = false;
  bool via_cache = false;
  /// Materialised proper-subquery candidates the cache surfaced for the
  /// arrival (reuse opportunities the MILP can exploit).
  int reuse_candidates = 0;
  /// Queries evicted by failure fallout or shortage this event.
  int evicted = 0;
  /// A closed-loop self-measurement fired while processing this event
  /// (meaningful for kTick in closed-loop mode only).
  bool measured = false;
  /// Re-planning round results drained while processing this event.
  int replanned_admitted = 0;
  int replanned_rejected = 0;
  /// Wall-clock latency of processing the event end to end.
  double wall_ms = 0.0;

  std::string ToString(const Catalog& catalog) const;
};

/// Aggregate counters over the service lifetime.
struct ServiceStats {
  int64_t events = 0;
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t dedup_hits = 0;
  int64_t cache_fast_path = 0;
  int64_t departures = 0;
  int64_t host_failures = 0;
  int64_t host_joins = 0;
  int64_t monitor_reports = 0;
  int64_t ticks = 0;
  /// Closed-loop counters (§IV-C): rate-trajectory directives consumed,
  /// self-measurements performed on measuring ticks, and measurements
  /// whose drift cycle evicted at least one query — i.e. the re-planning
  /// rounds the service triggered *by itself*, with no scripted
  /// kMonitorReport event anywhere in the trace.
  int64_t rate_directives = 0;
  int64_t measurement_ticks = 0;
  int64_t auto_replan_rounds = 0;
  /// Self-measurements served by the analytic mode (deployment ledgers
  /// scaled by truth/estimate ratios — no ClusterSim run). Equals
  /// measurement_ticks when telemetry.mode == kAnalytic, 0 in engine
  /// mode.
  int64_t analytic_ticks = 0;
  /// Reuse-index maintenance: events whose deployment changes were
  /// applied to the PlanCache as incremental deltas (additive commits,
  /// serving-only departures) instead of a full grounded-fixpoint
  /// rebuild. Rebuild/no-op counts live on the PlanCache itself.
  int64_t cache_delta_updates = 0;
  /// Bytes MakeSnapshot copied on the loop thread to hand re-planning
  /// rounds their inputs (overlay + admitted list, plus the full
  /// deployment on the amortised rebases) — O(changes since the last
  /// *rebase*, bounded by the rebase threshold) instead of the retired
  /// per-round planner deep copy.
  int64_t snapshot_bytes_copied = 0;
  /// Snapshot rebases (full-copy epochs) within the count above.
  int64_t snapshot_rebases = 0;
  int64_t evictions = 0;
  int64_t replan_rounds = 0;
  int64_t replanned_admitted = 0;
  int64_t replanned_rejected = 0;
  /// Rounds entered into the speculative pipeline (every worker count
  /// runs it; with workers >= 1 the solves go to the pool), and
  /// proposals that no longer applied at commit time and were re-solved
  /// synchronously on the loop thread. Neither is pipeline-depth
  /// invariant: deeper pipelines dispatch the same rounds earlier
  /// (sometimes re-dispatching after a barrier unwind) and speculate
  /// across not-yet-committed older rounds, so they conflict more —
  /// the price of starting solves early. The *committed* outcomes stay
  /// bit-identical; see docs/ARCHITECTURE.md §4.
  int64_t replan_dispatches = 0;
  int64_t commit_conflicts = 0;
  /// Speculative rounds unwound — proposals discarded, queries returned
  /// to the front of the scheduler — because a barrier event (monitor
  /// report, host failure/join, measuring tick) retired the pipeline
  /// before their pinned commit points. Only rounds *past* the oldest
  /// unwind (the oldest commits at the barrier, exactly as depth 1
  /// would); depth 1 therefore never unwinds.
  int64_t round_unwinds = 0;
  /// Cache-miss arrival solves performed while a re-planning round was
  /// in flight (dispatched, not yet committed) — the overlap the
  /// thread-safe catalog buys. Commit points are logical, so the count
  /// is identical for every worker count; with workers >= 1 each such
  /// solve genuinely overlaps background solving (the stall the
  /// pre-speculative service paid as barrier wait), which is the
  /// latency win bench_service_churn measures.
  int64_t overlapped_arrival_solves = 0;
  /// Incremental-solve counters (the planner's model cache and warm
  /// starts). MILP solves either patch a cached model skeleton in
  /// O(bounds) — model_patches — or build one from scratch —
  /// model_rebuilds (always on a structure's first solve, and after a
  /// rate/spec epoch bump invalidates the cache). warm_starts counts
  /// solves that installed the previous round's root LP basis;
  /// basis_discards counts bases rejected because presolve eliminated a
  /// different column set than when the basis was harvested (the solve
  /// then cold-starts — slower, never wrong).
  int64_t model_patches = 0;
  int64_t model_rebuilds = 0;
  int64_t warm_starts = 0;
  int64_t basis_discards = 0;
  /// Arrivals rejected because the catalog's bounded stores could not
  /// intern the query's join closure (ResourceExhausted) — a permanent
  /// condition until catalog GC exists, so these queries are *not*
  /// remembered for retry-on-join. Reason-coded in the audit journal as
  /// reject.exhausted.
  int64_t catalog_exhausted = 0;
  /// Degraded-mode solving (docs/ARCHITECTURE.md "Durability & degraded
  /// modes"): MILP solves that breached the per-solve wall budget
  /// (planner.solve_deadline_ms) and committed a best-incumbent or
  /// fell through, and admissions that came from the greedy heuristic
  /// fallback instead of a MILP solution. Wall-clock-driven with a
  /// positive budget (hence excluded from replay-invariance ties, like
  /// the watchdog counters); deterministic under the negative
  /// instantly-expired test budget.
  int64_t solver_deadline_breaches = 0;
  int64_t heuristic_fallbacks = 0;
  double total_wall_ms = 0.0;
  double max_event_ms = 0.0;

  // ---- Per-stage latency, from the loop thread's perspective. ----
  //
  // Log-bucketed histograms (obs::Histogram): count/sum/min/max exact,
  // p50/p95/p99 resolved from buckets in O(1) memory. These replace the
  // RunningStats + bounded-sample-window pair the service grew
  // organically — quantiles no longer need sample storage or a re-sort
  // per report.
  /// One admission through the cache-then-solve path (arrivals and
  /// re-planning re-solves), excluding any in-flight-round retirement
  /// it triggered — that time is reported under barrier/commit/solve.
  obs::Histogram admit_ms;
  /// Individual planner solves: inline arrival/re-planning solves and
  /// worker-side speculative solves alike.
  obs::Histogram solve_ms;
  /// Applying one worker proposal to the committed state.
  obs::Histogram commit_ms;
  /// Loop-thread blocking waits for an in-flight round to finish.
  obs::Histogram barrier_ms;
  /// One §IV-C self-measurement (closed loop only): the whole
  /// Measure() call — ClusterSim execution in engine mode, the ledger
  /// scan in analytic mode. The per-measuring-tick cost the analytic
  /// mode exists to shrink; bench_service_churn compares the two.
  obs::Histogram measure_ms;

  // ---- Stall/SLO watchdog (WatchdogOptions; all 0 when budgets are
  // off). Wall-clock observations — deterministic only at budget
  // extremes (see WatchdogOptions), hence excluded from the replay
  // invariance ties except in the dedicated watchdog tests. ----
  /// Step() calls whose wall time exceeded event_stall_ms, and the
  /// worst offender.
  int64_t loop_stalls = 0;
  double worst_stall_ms = 0.0;
  /// Per-stage budget breaches, one counter per latency histogram.
  int64_t admit_budget_breaches = 0;
  int64_t solve_budget_breaches = 0;
  int64_t commit_budget_breaches = 0;
  int64_t barrier_budget_breaches = 0;
  int64_t measure_budget_breaches = 0;
};

/// Publishes a ServiceStats snapshot into a MetricsRegistry under the
/// "service." prefix — counters incremented by their delta since the
/// previous Publish (registry counters are monotonic), histograms
/// copied wholesale. Drives the periodic metrics exposition:
/// tools/sqpr_service and bench_service_churn call Publish once per
/// export interval, then MetricsRegistry::TakeSnapshot()/DeltaSince.
class ServiceMetricsPublisher {
 public:
  explicit ServiceMetricsPublisher(obs::MetricsRegistry* registry)
      : registry_(registry) {}

  void Publish(const ServiceStats& stats);

 private:
  void Bump(const char* name, int64_t value, int64_t* last);

  obs::MetricsRegistry* registry_;
  ServiceStats last_;
};

/// The long-running DISSP-side planning loop the paper assumes around
/// the SQPR planner (§IV): queries arrive and depart over time, hosts
/// join and fail, and the resource monitor's reports trigger adaptive
/// re-planning. The service owns the planner, the resource monitor, a
/// plan-reuse cache and a deterministic event queue driven by an
/// injectable virtual clock; it updates the committed Deployment
/// incrementally, event by event.
///
/// Event semantics:
///   kQueryArrival   — admit via cache fast path or reduced MILP solve;
///   kQueryDeparture — remove + garbage-collect unshared support;
///   kHostFailure    — zero the host's budgets, evict its fallout and
///                     queue the evicted queries for re-admission;
///   kHostJoin       — restore the host's budgets; optionally retry
///                     recently rejected queries;
///   kMonitorReport  — §IV-B drift analysis: install measured rates,
///                     evict while over budget, queue affected queries;
///   kTick           — drain pending re-planning rounds; in closed-loop
///                     mode every measure_period-th tick first performs
///                     a §IV-C self-measurement (simulate the committed
///                     deployment under the telemetry rate model's true
///                     rates) and feeds it through the same §IV-B path;
///   kRateDirective  — install a ground-truth rate trajectory into the
///                     closed loop's rate model (ignored open-loop).
/// Every event ends by committing the oldest in-flight re-admission
/// round and topping the pipeline back up with the next bounded ones,
/// so planning latency per event stays bounded no matter how large a
/// failure or drift report is.
///
/// Threading: re-planning rounds run through a speculative
/// propose/commit pipeline at *every* worker count, up to
/// ReplanPolicyOptions::pipeline_depth rounds deep. Each round pins its
/// own planner snapshot at dispatch and commits at a fixed logical
/// point: exactly one round — the oldest — commits per Step(), FIFO in
/// dispatch order, so a round dispatched at the end of event N commits
/// at the end of event N+1 regardless of how many younger rounds were
/// dispatched behind it. Depth only moves dispatches earlier, never
/// commits: committed deployments are bit-identical across worker
/// counts AND pipeline depths. Rounds beyond the oldest speculate
/// against snapshots that older commits may invalidate; the planner's
/// strict structure-version gate bounces any stale proposal at its
/// pinned commit point (installing none of its solve artifacts) and the
/// service re-solves it inline against the live state — deterministic,
/// since it depends only on the commit order (the commit_conflicts
/// counter; warm-started, so the retry is cheap). With workers >= 1 the
/// solves run on a pool against immutable snapshots while the loop
/// thread keeps consuming events; with workers == 0 they run
/// synchronously at dispatch against the live planner — the same state
/// the snapshot would capture. Cache-miss arrivals solve speculatively
/// on the loop thread (WarmCatalog + ProposeAdmission +
/// CommitProposal) *without* retiring in-flight rounds: catalog
/// interning is internally synchronised and workers only ever read
/// published entries. Events that mutate state workers read in place —
/// monitor reports (measured-rate installation), host failure/join
/// (spec swaps), measuring ticks — still retire the whole pipeline
/// first: the oldest round commits (its pinned point coincides with
/// the barrier), and every younger round *unwinds* — proposals
/// dropped, un-departed queries returned to the front of the scheduler
/// — so the post-barrier schedule is exactly the one depth 1 would
/// have. See docs/ARCHITECTURE.md for the full model and determinism
/// contract.
class PlanningService {
 public:
  /// The service mutates `cluster` (host failure/rejoin) and `catalog`
  /// (measured-rate installation); both must outlive it.
  PlanningService(Cluster* cluster, Catalog* catalog, ServiceOptions options);

  /// Schedules an event. Events may be enqueued in any order; they are
  /// consumed in (timestamp, enqueue order). Rejects events timestamped
  /// before the virtual clock (already-consumed past).
  Status Enqueue(Event event);

  bool HasPendingEvents() const { return !queue_.empty(); }

  /// Consumes the next event and returns what happened.
  Result<EventOutcome> Step();

  /// Drains the queue; outcomes are appended when `outcomes` != nullptr.
  /// Ends by retiring the in-flight pipeline (commit the oldest round,
  /// unwind the rest), so the returned-to deployment and the pending
  /// backlog are bit-identical across pipeline depths.
  Status RunUntilIdle(std::vector<EventOutcome>* outcomes = nullptr);

  /// Retires the in-flight pipeline, if any (no-op when empty): waits
  /// for and commits the *oldest* round — the one whose pinned commit
  /// point is due — and unwinds younger speculative rounds back to the
  /// front of the scheduler, exactly as a barrier event would. Queued
  /// backlog stays pending. Call after stepping the service manually to
  /// a stopping point; the resulting state matches a depth-1 service
  /// stopped at the same point.
  void FinishInFlightRound();

  /// Translates a cluster-simulation report into a monitor-report event
  /// (base-stream rates + per-host-CPU) — the §IV-C loop where DISSP
  /// hosts sample utilisation and rates and feed the planner.
  Event MonitorReportFromSim(int64_t time_ms, const SimReport& report) const;

  /// Closes the decision audit journal (no-op when auditing is off):
  /// emits close.admitted (one record per admitted query, sorted),
  /// close.pending (one per scheduler-pending candidate, FIFO) and the
  /// journal.close terminator, so tools/sqpr_inspect.py can gate
  /// lifecycle completeness against the service's own final state. Call
  /// once, after FinishInFlightRound / RunUntilIdle.
  void FinalizeAudit();

  const SqprPlanner& planner() const { return planner_; }
  /// Closed-loop telemetry engine; null when `closed_loop` is off.
  /// Non-const access exists so callers (tools, tests) can seed the
  /// ground-truth rate model directly instead of via trace directives.
  MeasurementEngine* telemetry() { return telemetry_.get(); }
  const MeasurementEngine* telemetry() const { return telemetry_.get(); }
  const Deployment& deployment() const { return planner_.deployment(); }
  const PlanCache& plan_cache() const { return cache_; }
  const ServiceStats& stats() const { return stats_; }
  const VirtualClock& clock() const { return clock_; }
  const std::vector<StreamId>& admitted_queries() const {
    return planner_.admitted_queries();
  }
  bool HostActive(HostId h) const;
  /// Re-planning candidates not yet resolved: queued in the scheduler
  /// plus those in flight, minus in-flight queries that departed after
  /// dispatch (their proposals will be dropped, matching the scheduler
  /// discard a depth-1 service would have performed — the subtraction
  /// keeps this count pipeline-depth invariant).
  int pending_replans() const {
    int pending = static_cast<int>(scheduler_.pending());
    for (const InFlightRound& round : inflight_) {
      pending +=
          static_cast<int>(round.queries.size() - round.discards.size());
    }
    return pending;
  }
  /// Worker threads solving re-planning rounds (0 = solves run on the
  /// loop thread at dispatch; the pipeline and results are identical).
  int workers() const { return pool_ ? pool_->num_threads() : 0; }

  // ---- Crash durability (implemented in src/service/checkpoint.cc;
  // see docs/ARCHITECTURE.md "Durability & degraded modes"). ----

  /// Serializes the full service state as a sqpr-checkpoint-v1 JSON
  /// document. A checkpoint is a *pipeline barrier*: the call first
  /// retires any in-flight rounds (commit the oldest, unwind the rest),
  /// syncs the plan cache and canonicalizes the deployment ledgers —
  /// the same quiesce every barrier event performs — so the serialized
  /// state is worker/depth-invariant and the exported bytes are
  /// byte-identical across worker counts and pipeline depths. Restoring
  /// it into a freshly constructed service (same cluster/catalog/
  /// options provenance) and replaying the remaining events produces
  /// bit-identical committed deployments to an uninterrupted run that
  /// checkpointed at the same point.
  Result<std::string> ExportCheckpoint();

  /// Reinstates an ExportCheckpoint document into this service. The
  /// service must be freshly constructed — no events consumed — over a
  /// catalog rebuilt exactly as the checkpointing process built it
  /// before its first event (same workload generation, same seed) and
  /// the same ServiceOptions. Returns InvalidArgument with a quoted
  /// reason on version mismatch or any malformed/missing field; unknown
  /// fields are ignored (forward compatibility). On error the service
  /// is not safe to keep using. stats().events tells the caller how
  /// many trace events the checkpoint had consumed — i.e. where to
  /// resume the trace.
  Status RestoreCheckpoint(const std::string& json);

 private:
  /// One re-planning round in the speculative pipeline. With workers,
  /// tasks capture the shared_ptr state (never `this`), so destruction
  /// order is never a hazard: the pool joins before anything else is
  /// torn down. With workers == 0 the proposals are already solved and
  /// the latch already open when the round enters flight.
  struct InFlightRound {
    /// Monotonic dispatch id, tagged onto the round's
    /// dispatch/commit/unwind trace spans so a flight recording
    /// correlates the three ends of one round across the pipeline.
    int64_t id = 0;
    std::vector<StreamId> queries;
    /// Queries that departed after this round dispatched; their
    /// proposals are dropped at commit/unwind (the async twin of
    /// ReplanScheduler::Discard). Scoped per round: with several rounds
    /// in flight, a departure must only suppress the copy of the query
    /// in the round that actually carries it.
    std::set<StreamId> discards;
    /// Copy-on-write view of the planner the solves run against (null
    /// in inline mode, which solves against the live planner at
    /// dispatch — the same state the snapshot materialises). Shared
    /// core + O(changes) overlay; see SqprPlanner::MakeSnapshot.
    std::shared_ptr<const SqprPlanner::Snapshot> snapshot;
    /// Slot i is written by the task solving queries[i]; the latch's
    /// CountDown/Wait pair publishes the writes to the loop thread.
    std::shared_ptr<std::vector<Result<AdmissionProposal>>> proposals;
    std::shared_ptr<Latch> latch;
  };

  void HandleArrival(const Event& event, EventOutcome* outcome);
  void HandleDeparture(const Event& event, EventOutcome* outcome);
  Status HandleHostFailure(const Event& event, EventOutcome* outcome);
  Status HandleHostJoin(const Event& event, EventOutcome* outcome);
  Status HandleMonitorReport(const Event& event, EventOutcome* outcome);

  /// Shared §IV-B sink of measured data — scripted monitor reports and
  /// closed-loop self-measurements alike: Analyze, then RunDriftCycle
  /// into the bounded re-planning scheduler. Callers cross the monitor
  /// barrier (retire the in-flight round) first: the cycle installs
  /// measured rates in place (Catalog::UpdateBaseRate).
  Status ApplyMonitorData(const std::map<StreamId, double>& measured_rates,
                          const std::vector<double>& cpu_utilization,
                          EventOutcome* outcome);

  /// True on the tick that will fire a closed-loop self-measurement —
  /// used by Step() to retire the in-flight round first (same barrier a
  /// scripted kMonitorReport crosses).
  bool MeasurementDue() const {
    return telemetry_ != nullptr &&
           ticks_since_measure_ + 1 >= telemetry_->options().measure_period;
  }

  /// One §IV-C self-measurement: simulate the committed deployment
  /// under the rate model's current truth, then ApplyMonitorData.
  Status HandleSelfMeasurement(EventOutcome* outcome);

  /// End of every Step(): commits the oldest in-flight round (whose
  /// pinned commit point is this event), then tops the pipeline back up
  /// to pipeline_depth rounds against the state as of this event's
  /// mutations (both worker counts).
  void DrainReplanRounds(EventOutcome* outcome);

  /// Pops the next round off the scheduler, pre-warms the catalog for
  /// its queries (the deterministic interning point) and solves them
  /// speculatively: on the worker pool (workers >= 1) or synchronously
  /// right here (workers == 0). One round per call; DrainReplanRounds
  /// loops it until pipeline_depth rounds are in flight.
  void DispatchReplanRound();

  /// Blocks until the oldest in-flight round (if any) is solved, then
  /// commits its proposals in FIFO order on the calling (loop) thread;
  /// a proposal the strict version gate bounces is re-solved
  /// synchronously. Exactly one round commits per call — the pinned
  /// commit point that keeps committed deployments identical across
  /// pipeline depths.
  void CommitOldestRound(EventOutcome* outcome);

  /// Pops the *youngest* in-flight round without committing it: waits
  /// for its solves to quiesce (workers may be reading the catalog),
  /// drops the proposals and returns the round's un-departed queries to
  /// the front of the scheduler as one group, so the next dispatch pops
  /// the same round again.
  void UnwindYoungestRound();

  /// The pipeline barrier every handler that mutates worker-read state
  /// in place (measured rates, host specs) must cross first: commits
  /// the oldest round — the barrier event is its pinned commit point —
  /// and unwinds every younger round, youngest first, so the oldest
  /// unwound group ends up frontmost in the scheduler. Committing the
  /// younger rounds instead would let depth change committed state:
  /// they would land *before* the barrier's rate/spec installation,
  /// where depth 1 solves them after it.
  void RetireAllRounds(EventOutcome* outcome);

  // ---- Reuse-index (PlanCache) maintenance. ----
  //
  // Handlers report how their event changed the deployment; the cache
  // is brought up to date once, at the end of Step(). Additive commits
  // and serving-only changes apply as incremental deltas
  // (PlanCache::ApplyDelta, O(delta) instead of the grounded-fixpoint
  // scan); anything that removed operators or flows (departures with GC
  // fallout, evictions, drift cycles) falls back to a full Rebuild —
  // which itself no-ops when the deployment version is unchanged.

  /// Queues a delta for the end-of-event cache update. A delta carrying
  /// op/flow removals escalates to a full rebuild.
  void MarkCacheDelta(const DeploymentDelta& delta);
  /// Queues a pure serving change (cache fast-path admissions,
  /// GC-less departures).
  void MarkCacheServing(StreamId stream, HostId before, HostId after);
  void MarkCacheRebuild() { cache_rebuild_ = true; }
  /// Applies the queued maintenance (end of Step / round retirement).
  void SyncPlanCache();

  /// Admits one query; shared by arrivals and re-planning re-solves.
  /// Arrivals try the plan-cache fast path, then a speculative solve on
  /// the loop thread (WarmCatalog + ProposeAdmission + CommitProposal)
  /// that overlaps any in-flight rounds instead of retiring them. When
  /// `reuse_candidates` is non-null it receives the number of
  /// materialised proper-subquery hits. `arrival` is false for the
  /// commit-path conflict re-solves of a round: they skip the fast path
  /// and the overlapped_arrival_solves counter. A round's proposals are
  /// solves, never cache hits, so its re-solve must be the same solve
  /// against the live state; otherwise whether a proposal conflicted —
  /// which pipeline depth decides — would choose between a solved plan
  /// and a cached one.
  Result<PlanningStats> Admit(StreamId query, int* reuse_candidates,
                              bool arrival = true);

  /// Wraps SqprPlanner::WarmCatalog: records the first-call order of
  /// warmed queries (the catalog intern log a checkpoint replays to
  /// reproduce StreamId assignment) and counts graceful catalog
  /// exhaustion.
  Status WarmCatalogLogged(StreamId query);

  /// Speculative (wall-dependent) audit record for a solve that
  /// breached its degraded-mode budget: detail 1 = admitted via the
  /// solver's best incumbent, 2 = admitted via the greedy heuristic,
  /// 3 = rejected (retried through the next round once, arrivals only).
  void AuditDeadlineBreach(StreamId query, const PlanningStats& stats) const;

  /// Folds one solve's incremental-path telemetry into the aggregate
  /// counters (loop thread only; worker-side solves are counted when
  /// their proposals commit).
  void CountSolveStats(const PlanningStats& stats);

  void RememberRejected(StreamId query);

  // ---- Decision audit journal (options_.audit; all no-ops when off).
  // Canonical records are emitted at commit points only, so the stream
  // is worker/depth-invariant; anything tied to speculative pipeline
  // state is marked speculative and excluded from canonical rendering
  // (see obs/audit.h). ----

  bool AuditOn() const { return options_.audit != nullptr; }
  /// Builds a record stamped with the virtual time.
  obs::AuditRecord AuditBase(const char* kind) const;
  /// Captures the committed deployment's version/structure/fingerprint
  /// into the record's pre_* (post == false) or post_* fields. Only
  /// called when auditing is on — Fingerprint() is not free.
  void AuditFingerprint(obs::AuditRecord* r, bool post) const;
  void AuditAppend(obs::AuditRecord r) const;
  /// Records one ServiceStats stage sample and checks it against its
  /// watchdog budget (budget 0 = off).
  void SampleStage(obs::Histogram* h, double ms, double budget_ms,
                   int64_t* breaches);

  /// Committed-round sequence for replan.round records: counts rounds
  /// that committed with at least one non-discarded query. Rounds whose
  /// every query departed in flight exist only at depth > 1 (depth 1
  /// discards them in the scheduler before dispatch), so they must not
  /// consume a sequence number.
  int64_t audit_round_seq_ = 0;

  Cluster* cluster_;
  Catalog* catalog_;
  ServiceOptions options_;
  SqprPlanner planner_;
  ResourceMonitor monitor_;
  PlanCache cache_;
  ReplanScheduler scheduler_;
  VirtualClock clock_;
  EventQueue queue_;
  ServiceStats stats_;

  /// Pending reuse-index maintenance, applied once at the end of Step()
  /// rather than after every mutation (intra-event lookups may see a
  /// snapshot from the event's start — safe, because AdmitMaterialized
  /// re-checks groundedness and SubmitQuery's dedup is authoritative).
  bool cache_rebuild_ = false;
  std::vector<DeploymentDelta> cache_deltas_;
  /// Closed-loop telemetry (null in open-loop mode). Loop-thread-owned,
  /// like every other committed-state structure.
  std::unique_ptr<MeasurementEngine> telemetry_;
  /// Ticks consumed since the last self-measurement.
  int ticks_since_measure_ = 0;

  /// Saved specs of failed hosts, restored on rejoin.
  std::map<HostId, HostSpec> failed_hosts_;
  /// Recently rejected queries (FIFO, bounded), retried after joins.
  std::deque<StreamId> rejected_recently_;
  /// First-call order of every query whose catalog closure this service
  /// warmed (WarmCatalogLogged). Interning order decides StreamId
  /// assignment, so a checkpoint restore replays JoinClosure over this
  /// log — in order, onto a catalog rebuilt to its pre-service state —
  /// to reproduce the catalog bit-for-bit.
  std::vector<StreamId> warm_log_;
  std::set<StreamId> warm_logged_;
  /// Queries already granted their one retry after a deadline-breach
  /// rejection. The single-shot guard keeps the degraded mode from
  /// looping a query forever when every solve breaches (the
  /// instantly-expired test budget does exactly that).
  std::set<StreamId> deadline_retried_;

  /// Speculative re-planning pipeline (every worker count), oldest
  /// round at the front; at most ReplanPolicyOptions::pipeline_depth
  /// rounds deep. The pool is declared last so it is destroyed —
  /// joining its threads — before any other member; tasks only capture
  /// the shared_ptrs inside InFlightRound, never `this`.
  std::deque<InFlightRound> inflight_;
  int64_t next_round_id_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_PLANNING_SERVICE_H_
