#ifndef SQPR_SERVICE_PLANNING_SERVICE_H_
#define SQPR_SERVICE_PLANNING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
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
  /// Decision audit journal (null = auditing off, zero cost). Emission
  /// happens at commit points only, so the canonical record stream
  /// inherits the determinism contract: byte-identical across replays
  /// (see obs/audit.h and docs/ARCHITECTURE.md §7). Must outlive the
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
  /// applied to the PlanCache as one incremental delta. Full rebuilds
  /// (the first build) are counted on the PlanCache itself.
  int64_t cache_delta_updates = 0;
  int64_t evictions = 0;
  int64_t replan_rounds = 0;
  int64_t replanned_admitted = 0;
  int64_t replanned_rejected = 0;
  /// Always 0: every solve commits in place, at its commit point, so
  /// nothing conflicts, nothing is unwound and no snapshot is copied.
  /// Kept only because the benchmark replay still reads them; the next
  /// benchmark change drops them together with barrier_ms below.
  int64_t commit_conflicts = 0;
  int64_t round_unwinds = 0;
  int64_t snapshot_bytes_copied = 0;
  /// Solver effort summed over every committed solve (arrivals and
  /// round queries): branch-and-bound nodes, simplex pivots, basis
  /// factorizations, dual-simplex LP calls, pivots from slack-basis
  /// starts and rejected integral candidates (see PlanningStats). Under
  /// node-bounded solves all are deterministic, so they measure work
  /// without wall-clock noise, and a solver change that keeps every
  /// pivot leaves all of them equal.
  int64_t solver_nodes = 0;
  int64_t lp_iterations = 0;
  int64_t lp_factorizations = 0;
  int64_t lp_dual_solves = 0;
  int64_t lp_slack_start_iterations = 0;
  int64_t rejected_candidates = 0;
  /// Rejection cost. screened_rejections: solves the planner's exact
  /// admission screen rejected without building a model (zero effort).
  /// rejected_solver_nodes / rejected_lp_iterations: the part of
  /// solver_nodes / lp_iterations spent by solves that admitted
  /// nothing. Deterministic under node-bounded solves, like the above.
  int64_t screened_rejections = 0;
  int64_t rejected_solver_nodes = 0;
  int64_t rejected_lp_iterations = 0;
  /// Incremental-solve counters (the planner's model cache). MILP
  /// solves either patch a cached model skeleton in O(bounds) —
  /// model_patches — or build one from scratch — model_rebuilds (always
  /// on a structure's first solve, and after a rate/spec epoch bump
  /// invalidates the cache).
  int64_t model_patches = 0;
  int64_t model_rebuilds = 0;
  /// Always 0: every solve starts from the committed deployment alone,
  /// with no root basis carried over from an earlier solve. Kept only
  /// because the benchmark replay still reads them; the next benchmark
  /// change drops them.
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
  /// re-planning round queries).
  obs::Histogram admit_ms;
  /// Individual planner solves (arrivals and round queries alike).
  obs::Histogram solve_ms;
  /// The commit part of each admitting solve: applying the plan's delta
  /// to the committed deployment and auditing it
  /// (PlanningStats::commit_ms).
  obs::Histogram commit_ms;
  /// Always empty (nothing waits on a round any more); see round_unwinds.
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
/// Every event ends by committing the pending re-admission round and
/// popping the next bounded one, so planning latency per event stays
/// bounded no matter how large a failure or drift report is.
///
/// Rounds: the group popped off the scheduler at the end of event N is
/// the *pending round*. Its catalog closures are interned at the pop,
/// which pins StreamId assignment. It commits at the end of event N+1,
/// or at the start of N+1 when N+1 is a barrier event (monitor report,
/// host failure/join, measuring tick) that installs rates or host specs
/// the round must not see. At its commit point the round's queries are
/// solved in order against the committed state, each seeing the ones
/// before it, through the same solve-and-commit path as an arrival
/// (minus the plan-cache fast path). Queries that departed since the
/// pop are skipped. Nothing is solved ahead of its commit point, so no
/// solve is thrown away. Everything runs on the calling thread. See
/// docs/ARCHITECTURE.md for the full model and determinism contract.
class PlanningService {
 public:
  /// The service mutates `cluster` (host failure/rejoin) and `catalog`
  /// (measured-rate installation); both must outlive it.
  PlanningService(Cluster* cluster, Catalog* catalog, ServiceOptions options);
  // The planner records its changes into a member of this object.
  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Schedules a copy of an event. Events may be enqueued in any order;
  /// they are consumed in (timestamp, enqueue order). Rejects events
  /// timestamped before the virtual clock (already-consumed past). The
  /// copy is made here, inside the `service/enqueue` span, so a trace
  /// attributes it to the service rather than to the caller.
  Status Enqueue(const Event& event);

  bool HasPendingEvents() const { return !queue_.empty(); }

  /// Consumes the next event and returns what happened.
  Result<EventOutcome> Step();

  /// Drains the queue; outcomes are appended when `outcomes` != nullptr.
  /// Ends by committing the pending round (FinishInFlightRound).
  Status RunUntilIdle(std::vector<EventOutcome>* outcomes = nullptr);

  /// Commits the pending round, if any, exactly as a barrier event
  /// would. Queued backlog stays pending. Call after stepping the
  /// service manually to a stopping point.
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
  /// plus the pending round's queries that have not departed.
  int pending_replans() const {
    return static_cast<int>(scheduler_.pending() + round_.size() -
                            round_departed_.size());
  }

  // ---- Crash durability (implemented in src/service/checkpoint.cc;
  // see docs/ARCHITECTURE.md "Durability & degraded modes"). ----

  /// Serializes the full service state as a sqpr-checkpoint-v1 JSON
  /// document. A checkpoint is a *barrier*: the call first commits the
  /// pending round, syncs the plan cache and canonicalizes the
  /// deployment ledgers — the same quiesce every barrier event performs
  /// — so the exported bytes are a function of the events consumed.
  /// Restoring
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
  void HandleArrival(const Event& event, EventOutcome* outcome);
  void HandleDeparture(const Event& event, EventOutcome* outcome);
  Status HandleHostFailure(const Event& event, EventOutcome* outcome);
  Status HandleHostJoin(const Event& event, EventOutcome* outcome);
  Status HandleMonitorReport(const Event& event, EventOutcome* outcome);

  /// Shared §IV-B sink of measured data — scripted monitor reports and
  /// closed-loop self-measurements alike: Analyze, then RunDriftCycle
  /// into the bounded re-planning scheduler. Callers cross the monitor
  /// barrier (commit the pending round) first: the cycle installs
  /// measured rates in place (Catalog::UpdateBaseRate).
  Status ApplyMonitorData(const std::map<StreamId, double>& measured_rates,
                          const std::vector<double>& cpu_utilization,
                          EventOutcome* outcome);

  /// True on the tick that will fire a closed-loop self-measurement —
  /// used by Step() to commit the pending round first (same barrier a
  /// scripted kMonitorReport crosses).
  bool MeasurementDue() const {
    return telemetry_ != nullptr &&
           ticks_since_measure_ + 1 >= telemetry_->options().measure_period;
  }

  /// One §IV-C self-measurement: simulate the committed deployment
  /// under the rate model's current truth, then ApplyMonitorData.
  Status HandleSelfMeasurement(EventOutcome* outcome);

  /// End of every Step(): commits the pending round (whose commit point
  /// is this event), then pops the next one off the scheduler and
  /// interns its queries' catalog closures — the deterministic interning
  /// point. The "mid-round" crash point sits between pop and commit.
  void DrainReplanRounds(EventOutcome* outcome);

  /// Solves the pending round's queries in order against the committed
  /// state, one Admit(q, nullptr, /*arrival=*/false) each, skipping the
  /// ones that departed since the pop. No-op when no round is pending.
  /// Barrier events and FinishInFlightRound call it before their
  /// handler; DrainReplanRounds calls it at the end of every Step().
  void CommitPendingRound(EventOutcome* outcome);

  /// Applies the structural changes the planner recorded since the last
  /// sync (cache_changes_) to the reuse index as one delta. Called at
  /// the end of Step() and of round retirement.
  void SyncPlanCache();

  /// Admits one query; shared by arrivals and re-planning round queries.
  /// Arrivals try the plan-cache fast path, then a solve (WarmCatalog +
  /// SqprPlanner::SubmitQuery, which commits in place). When `reuse_candidates` is
  /// non-null it receives the number of materialised proper-subquery
  /// hits. `arrival` is false for round queries: they skip the fast
  /// path, so a re-planned query is always placed by a solve.
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

  /// Folds one committed solve's telemetry (incremental-path flags,
  /// solver effort) into the aggregate counters.
  void CountSolveStats(const PlanningStats& stats);

  void RememberRejected(StreamId query);

  // ---- Decision audit journal (options_.audit; all no-ops when off).
  // Canonical records are emitted at commit points only; wall-clock
  // observations and scheduler discards are marked speculative and
  // excluded from canonical rendering (see obs/audit.h). ----

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
  /// that committed with at least one query that had not departed.
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

  /// Structural changes the planner committed since the last
  /// SyncPlanCache (its change log), applied once at the end of Step()
  /// rather than after every mutation. Intra-event lookups see the
  /// index as of the event's start — safe, because AdmitMaterialized
  /// re-checks groundedness and SubmitQuery's dedup is authoritative.
  DeploymentDelta cache_changes_;
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

  /// The pending round (empty when none): popped at the end of the
  /// previous event, committed at the end of this one or at an earlier
  /// barrier. `round_departed_` holds its queries that departed since
  /// the pop; the commit skips them.
  std::vector<StreamId> round_;
  std::set<StreamId> round_departed_;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_PLANNING_SERVICE_H_
