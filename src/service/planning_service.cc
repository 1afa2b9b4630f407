#include "service/planning_service.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "plan/query_plan.h"

namespace sqpr {

std::string EventOutcome::ToString(const Catalog& catalog) const {
  std::string out = event.ToString();
  if (event.kind == EventKind::kQueryArrival) {
    if (event.query >= 0 && event.query < catalog.num_streams() &&
        !catalog.stream(event.query).name.empty()) {
      out += " (" + catalog.stream(event.query).name + ")";
    }
    out += already_served ? " dedup"
           : admitted     ? (via_cache ? " admit[cache]" : " admit")
                          : " reject";
    if (reuse_candidates > 0) {
      out += " reuse-candidates=" + std::to_string(reuse_candidates);
    }
  }
  if (measured) out += " measure";
  if (evicted > 0) out += " evicted=" + std::to_string(evicted);
  if (replanned_admitted + replanned_rejected > 0) {
    out += " replanned=" + std::to_string(replanned_admitted) + "/" +
           std::to_string(replanned_admitted + replanned_rejected);
  }
  return out;
}

PlanningService::PlanningService(Cluster* cluster, Catalog* catalog,
                                 ServiceOptions options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      planner_(cluster, catalog, options.planner),
      monitor_(catalog, options.drift),
      cache_(catalog),
      scheduler_(options.replan) {
  SQPR_CHECK(cluster != nullptr && catalog != nullptr);
  if (options_.replan.workers > 0) {
    int threads = options_.replan.workers;
    if (options_.replan.clamp_workers_to_cores) {
      const int cores =
          static_cast<int>(std::thread::hardware_concurrency());
      if (cores > 0) threads = std::min(threads, cores);
    }
    pool_ = std::make_unique<ThreadPool>(threads, [](int i) {
      obs::TraceRecorder::SetCurrentThreadName("worker-" + std::to_string(i));
    });
  }
  if (options_.closed_loop) {
    telemetry_ =
        std::make_unique<MeasurementEngine>(catalog, options_.telemetry);
  }
  // The scheduler audits its own enqueue/discard/requeue decisions;
  // it shares the service's journal and virtual clock.
  scheduler_.set_audit(options_.audit, &clock_);
}

void ServiceMetricsPublisher::Bump(const char* name, int64_t value,
                                   int64_t* last) {
  registry_->counter(name)->Increment(value - *last);
  *last = value;
}

void ServiceMetricsPublisher::Publish(const ServiceStats& stats) {
  Bump("service.events", stats.events, &last_.events);
  Bump("service.arrivals", stats.arrivals, &last_.arrivals);
  Bump("service.admitted", stats.admitted, &last_.admitted);
  Bump("service.rejected", stats.rejected, &last_.rejected);
  Bump("service.dedup_hits", stats.dedup_hits, &last_.dedup_hits);
  Bump("service.cache_fast_path", stats.cache_fast_path,
       &last_.cache_fast_path);
  Bump("service.departures", stats.departures, &last_.departures);
  Bump("service.host_failures", stats.host_failures, &last_.host_failures);
  Bump("service.host_joins", stats.host_joins, &last_.host_joins);
  Bump("service.monitor_reports", stats.monitor_reports,
       &last_.monitor_reports);
  Bump("service.ticks", stats.ticks, &last_.ticks);
  Bump("service.rate_directives", stats.rate_directives,
       &last_.rate_directives);
  Bump("service.measurement_ticks", stats.measurement_ticks,
       &last_.measurement_ticks);
  Bump("service.auto_replan_rounds", stats.auto_replan_rounds,
       &last_.auto_replan_rounds);
  Bump("service.analytic_ticks", stats.analytic_ticks, &last_.analytic_ticks);
  Bump("service.cache_delta_updates", stats.cache_delta_updates,
       &last_.cache_delta_updates);
  Bump("service.snapshot_bytes_copied", stats.snapshot_bytes_copied,
       &last_.snapshot_bytes_copied);
  Bump("service.snapshot_rebases", stats.snapshot_rebases,
       &last_.snapshot_rebases);
  Bump("service.evictions", stats.evictions, &last_.evictions);
  Bump("service.replan_rounds", stats.replan_rounds, &last_.replan_rounds);
  Bump("service.replanned_admitted", stats.replanned_admitted,
       &last_.replanned_admitted);
  Bump("service.replanned_rejected", stats.replanned_rejected,
       &last_.replanned_rejected);
  Bump("service.replan_dispatches", stats.replan_dispatches,
       &last_.replan_dispatches);
  Bump("service.commit_conflicts", stats.commit_conflicts,
       &last_.commit_conflicts);
  Bump("service.round_unwinds", stats.round_unwinds, &last_.round_unwinds);
  Bump("service.overlapped_arrival_solves", stats.overlapped_arrival_solves,
       &last_.overlapped_arrival_solves);
  Bump("service.model_patches", stats.model_patches, &last_.model_patches);
  Bump("service.model_rebuilds", stats.model_rebuilds,
       &last_.model_rebuilds);
  Bump("service.warm_starts", stats.warm_starts, &last_.warm_starts);
  Bump("service.basis_discards", stats.basis_discards,
       &last_.basis_discards);
  Bump("service.catalog_exhausted", stats.catalog_exhausted,
       &last_.catalog_exhausted);
  Bump("service.solver_deadline_breaches", stats.solver_deadline_breaches,
       &last_.solver_deadline_breaches);
  Bump("service.heuristic_fallbacks", stats.heuristic_fallbacks,
       &last_.heuristic_fallbacks);
  Bump("service.loop_stalls", stats.loop_stalls, &last_.loop_stalls);
  Bump("service.admit_budget_breaches", stats.admit_budget_breaches,
       &last_.admit_budget_breaches);
  Bump("service.solve_budget_breaches", stats.solve_budget_breaches,
       &last_.solve_budget_breaches);
  Bump("service.commit_budget_breaches", stats.commit_budget_breaches,
       &last_.commit_budget_breaches);
  Bump("service.barrier_budget_breaches", stats.barrier_budget_breaches,
       &last_.barrier_budget_breaches);
  Bump("service.measure_budget_breaches", stats.measure_budget_breaches,
       &last_.measure_budget_breaches);
  *registry_->histogram("service.admit_ms") = stats.admit_ms;
  *registry_->histogram("service.solve_ms") = stats.solve_ms;
  *registry_->histogram("service.commit_ms") = stats.commit_ms;
  *registry_->histogram("service.barrier_ms") = stats.barrier_ms;
  *registry_->histogram("service.measure_ms") = stats.measure_ms;
}

obs::AuditRecord PlanningService::AuditBase(const char* kind) const {
  obs::AuditRecord r;
  r.t_ms = clock_.now_ms();
  r.kind = kind;
  return r;
}

void PlanningService::AuditFingerprint(obs::AuditRecord* r, bool post) const {
  const Deployment& d = deployment();
  const uint64_t fp = obs::AuditJournal::Fnv1a(d.Fingerprint());
  if (post) {
    r->post_version = d.version();
    r->post_structure = d.structure_version();
    r->post_fp = fp;
  } else {
    r->pre_version = d.version();
    r->pre_structure = d.structure_version();
    r->pre_fp = fp;
  }
}

void PlanningService::AuditAppend(obs::AuditRecord r) const {
  options_.audit->Append(std::move(r));
}

void PlanningService::SampleStage(obs::Histogram* h, double ms,
                                  double budget_ms, int64_t* breaches) {
  h->Add(ms);
  if (budget_ms > 0 && ms > budget_ms) ++(*breaches);
}

void PlanningService::FinalizeAudit() {
  if (!AuditOn()) return;
  // Final-state records close every lifecycle the journal opened:
  // tools/sqpr_inspect.py replays the record chain into per-query states
  // and requires them to equal these lists exactly.
  obs::AuditRecord a = AuditBase("close.admitted");
  std::vector<StreamId> admitted = planner_.admitted_queries();
  std::sort(admitted.begin(), admitted.end());
  a.detail = static_cast<int64_t>(admitted.size());
  a.streams.assign(admitted.begin(), admitted.end());
  AuditFingerprint(&a, /*post=*/false);
  AuditFingerprint(&a, /*post=*/true);
  AuditAppend(std::move(a));

  obs::AuditRecord p = AuditBase("close.pending");
  const std::vector<StreamId> pending = scheduler_.PendingQueries();
  p.detail = static_cast<int64_t>(pending.size());
  p.streams.assign(pending.begin(), pending.end());
  AuditAppend(std::move(p));

  obs::AuditRecord c = AuditBase("journal.close");
  c.detail = stats_.events;
  AuditFingerprint(&c, /*post=*/false);
  AuditFingerprint(&c, /*post=*/true);
  AuditAppend(std::move(c));
}

Status PlanningService::Enqueue(Event event) {
  if (event.time_ms < clock_.now_ms()) {
    return Status::InvalidArgument(
        "event at t=" + std::to_string(event.time_ms) +
        " is before the virtual clock (t=" + std::to_string(clock_.now_ms()) +
        ")");
  }
  queue_.Push(std::move(event));
  return Status::OK();
}

bool PlanningService::HostActive(HostId h) const {
  return h >= 0 && h < cluster_->num_hosts() && failed_hosts_.count(h) == 0;
}

Result<EventOutcome> PlanningService::Step() {
  if (queue_.empty()) {
    return Status::FailedPrecondition("no pending events");
  }
  Stopwatch watch;
  Event event = queue_.Pop();
  clock_.AdvanceTo(event.time_ms);
  // Tag spans with the virtual clock so a trace correlates wall time
  // with trace time; pure observation, read back by nothing.
  obs::TraceRecorder::SetVirtualTimeMs(clock_.now_ms());
  // One span per event, named by kind (indexed registration keeps the
  // per-event cost at one array load when tracing is on, zero when off).
  static const uint32_t kEventSpanIds[] = {
      obs::TraceRecorder::RegisterSpan("service/event.arrival"),
      obs::TraceRecorder::RegisterSpan("service/event.departure"),
      obs::TraceRecorder::RegisterSpan("service/event.host_join"),
      obs::TraceRecorder::RegisterSpan("service/event.host_failure"),
      obs::TraceRecorder::RegisterSpan("service/event.monitor_report"),
      obs::TraceRecorder::RegisterSpan("service/event.tick"),
      obs::TraceRecorder::RegisterSpan("service/event.rate_directive")};
  obs::SpanScope event_span(kEventSpanIds[static_cast<int>(event.kind)]);

  EventOutcome outcome;
  outcome.event = event;
  ++stats_.events;

  // Handlers below mutate *published* state the worker solves read
  // through shared pointers — measured-rate installation rewrites
  // catalog entries in place, failure/join swaps host specs — so they
  // must retire the whole in-flight pipeline first: commit the oldest
  // round (the barrier is its pinned commit point) and unwind the
  // younger speculative ones back to the scheduler. (Arrivals are
  // exempt: they only *intern*, which the catalog synchronises
  // internally.) This barrier is also what keeps replays deterministic:
  // rounds commit at fixed logical points, never "when the solve
  // happens to finish" — and never *early* at a barrier, which would
  // let pipeline depth move their solves ahead of the rate install.
  switch (event.kind) {
    case EventKind::kHostFailure:
    case EventKind::kHostJoin:
    case EventKind::kMonitorReport:
      RetireAllRounds(&outcome);
      break;
    case EventKind::kTick:
      // A measuring tick is a monitor report the service writes itself:
      // it crosses the same barrier before installing measured rates.
      if (MeasurementDue()) RetireAllRounds(&outcome);
      break;
    default:
      break;
  }

  Status st;
  switch (event.kind) {
    case EventKind::kQueryArrival:
      HandleArrival(event, &outcome);
      break;
    case EventKind::kQueryDeparture:
      HandleDeparture(event, &outcome);
      break;
    case EventKind::kHostFailure:
      st = HandleHostFailure(event, &outcome);
      break;
    case EventKind::kHostJoin:
      st = HandleHostJoin(event, &outcome);
      break;
    case EventKind::kMonitorReport:
      st = HandleMonitorReport(event, &outcome);
      break;
    case EventKind::kTick:
      ++stats_.ticks;
      if (telemetry_ != nullptr &&
          ++ticks_since_measure_ >= telemetry_->options().measure_period) {
        ticks_since_measure_ = 0;
        st = HandleSelfMeasurement(&outcome);
      }
      break;
    case EventKind::kRateDirective: {
      ++stats_.rate_directives;
      // Ground truth only exists in closed-loop mode; an open-loop
      // replay of a closed-loop trace counts and skips the directive
      // (there is nothing to measure it with).
      bool installed_ok = false;
      if (telemetry_ != nullptr) {
        // Only base streams have an injection rate to steer: a directive
        // for a composite or unknown stream would install fine but could
        // never be observed (measurements filter on is_base), so reject
        // it loudly instead of letting the trajectory vanish silently.
        const StreamId s = event.trajectory.stream;
        Status installed =
            (s >= 0 && s < catalog_->num_streams() && catalog_->stream(s).is_base)
                ? telemetry_->rate_model().Install(event.trajectory,
                                                   event.time_ms)
                : Status::InvalidArgument("stream " + std::to_string(s) +
                                          " is not a base stream");
        if (!installed.ok()) {
          SQPR_LOG_WARN << "rate directive rejected: "
                        << installed.ToString();
        } else {
          installed_ok = true;
        }
      }
      if (AuditOn()) {
        obs::AuditRecord r = AuditBase("rate.directive");
        r.query = event.trajectory.stream;
        r.detail = installed_ok ? 1 : 0;
        AuditAppend(std::move(r));
      }
      break;
    }
  }
  if (!st.ok()) return st;

  // Every event ends with bounded re-admission work, so fallout queued
  // by failures and drift reports drains steadily without ever letting
  // one event monopolise the loop.
  DrainReplanRounds(&outcome);

  // One reuse-index update per mutating event, not per mutation:
  // incremental deltas when everything was additive, one rebuild
  // otherwise.
  SyncPlanCache();

  outcome.wall_ms = watch.ElapsedMillis();
  stats_.total_wall_ms += outcome.wall_ms;
  stats_.max_event_ms = std::max(stats_.max_event_ms, outcome.wall_ms);
  // Stall detector: the virtual clock stood still for this entire
  // Step() while the wall clock ran `wall_ms` — over budget counts as a
  // loop stall. Wall-clock, so speculative in the journal.
  const double stall_budget = options_.watchdog.event_stall_ms;
  if (stall_budget > 0 && outcome.wall_ms > stall_budget) {
    ++stats_.loop_stalls;
    stats_.worst_stall_ms = std::max(stats_.worst_stall_ms, outcome.wall_ms);
    if (AuditOn()) {
      obs::AuditRecord r = AuditBase("watchdog.stall");
      r.speculative = true;
      r.detail = static_cast<int64_t>(event.kind);
      r.solve_ms = outcome.wall_ms;
      AuditAppend(std::move(r));
    }
  }
  return outcome;
}

Status PlanningService::RunUntilIdle(std::vector<EventOutcome>* outcomes) {
  while (HasPendingEvents()) {
    Result<EventOutcome> outcome = Step();
    if (!outcome.ok()) return outcome.status();
    if (outcomes != nullptr) outcomes->push_back(std::move(*outcome));
  }
  FinishInFlightRound();
  return Status::OK();
}

void PlanningService::FinishInFlightRound() {
  if (inflight_.empty()) return;
  EventOutcome scratch;  // results land in the aggregate stats_
  // Same semantics as a barrier: only the oldest round's pinned commit
  // point is due, so only it commits; younger speculative rounds return
  // to the scheduler. A depth-1 service stopped here holds exactly this
  // state — those rounds still queued, not yet dispatched.
  RetireAllRounds(&scratch);
  SyncPlanCache();
}

void PlanningService::MarkCacheDelta(const DeploymentDelta& delta) {
  if (!options_.use_plan_cache) return;
  if (!delta.ops_removed.empty() || !delta.flows_removed.empty()) {
    // Removals un-ground; the cache can only close monotonically.
    cache_rebuild_ = true;
    return;
  }
  if (!cache_rebuild_) cache_deltas_.push_back(delta);
}

void PlanningService::MarkCacheServing(StreamId stream, HostId before,
                                       HostId after) {
  if (!options_.use_plan_cache || cache_rebuild_) return;
  DeploymentDelta delta;
  delta.serving_changes.push_back({stream, before, after});
  cache_deltas_.push_back(std::move(delta));
}

void PlanningService::SyncPlanCache() {
  if (!options_.use_plan_cache) return;
  if (cache_rebuild_) {
    SQPR_TRACE_SPAN("service/cache.rebuild");
    // Rebuild itself no-ops (version check) when nothing actually moved
    // — e.g. a failure event whose host carried no allocations.
    cache_.Rebuild(deployment());
  } else if (!cache_deltas_.empty()) {
    SQPR_TRACE_SPAN_ARGS(span, "service/cache.delta", "deltas", nullptr);
    span.set_args(cache_deltas_.size());
    for (const DeploymentDelta& delta : cache_deltas_) {
      const bool incremental = cache_.ApplyDelta(deployment(), delta);
      if (incremental) {
        ++stats_.cache_delta_updates;
      } else {
        // The cache fell back to a full scan (first build); that scan
        // already reflects the final deployment, so the remaining
        // deltas are subsumed.
        break;
      }
    }
  }
  cache_rebuild_ = false;
  cache_deltas_.clear();
}

Result<PlanningStats> PlanningService::Admit(StreamId query,
                                             int* reuse_candidates,
                                             bool arrival) {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " + std::to_string(query));
  }

  SQPR_TRACE_SPAN("service/admit");
  Stopwatch watch;

  if (options_.use_plan_cache && arrival) {
    PlanCache::Lookup lookup = cache_.OnArrival(query);
    if (reuse_candidates != nullptr) {
      *reuse_candidates = static_cast<int>(lookup.partial.size());
    }
    if (lookup.exact && !lookup.served) {
      // Materialised but unserved: admission is one serving arc. The
      // planner tries the grounded hosts in order over one availability
      // fixpoint; capacity misses fall through to the solver, which may
      // still admit by re-routing. This path only touches the
      // loop-owned deployment.
      Result<PlanningStats> fast =
          planner_.AdmitMaterialized(query, lookup.exact_hit.hosts);
      if (fast.ok()) {
        // A dedup outcome (already served) changed nothing — flagging it
        // used to schedule a full no-op rebuild scan. Only a genuinely
        // new serving arc needs indexing, and it is a pure serving
        // delta.
        if (fast->admitted && !fast->already_served) {
          MarkCacheServing(query, kInvalidHost, deployment().ServingHost(query));
        }
        SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
                options_.watchdog.admit_budget_ms,
                &stats_.admit_budget_breaches);
        return fast;
      }
      if (fast.status().IsInvalidArgument()) {
        SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
                options_.watchdog.admit_budget_ms,
                &stats_.admit_budget_breaches);
        return fast.status();
      }
    }
  }

  // Authoritative dedup (Algorithm 1 line 3), cheap and before any
  // speculation: a served stream's repeat arrival must not pay the
  // planner-copy of a speculative solve (or count as an overlapped
  // solve) just to discover it was a duplicate.
  if (deployment().ServingHost(query) != kInvalidHost) {
    PlanningStats dedup;
    dedup.admitted = true;
    dedup.already_served = true;
    dedup.wall_ms = watch.ElapsedMillis();
    SampleStage(&stats_.admit_ms, dedup.wall_ms,
                options_.watchdog.admit_budget_ms,
                &stats_.admit_budget_breaches);
    return dedup;
  }

  // Cache miss: speculative solve on the loop thread, overlapping any
  // in-flight re-planning rounds. WarmCatalog pre-interns the query's
  // join closure — the only catalog *writes* a solve needs, performed
  // here on the loop thread so StreamId assignment stays at a
  // deterministic point (interning itself is thread-safe; workers
  // reading the catalog concurrently only ever see published entries).
  // The solve then runs against a private copy of the committed state
  // and commits its delta immediately; in-flight rounds keep solving
  // throughout and reconcile at their own pinned commit points (FIFO,
  // conflicts re-solved).
  if (!inflight_.empty() && arrival) {
    ++stats_.overlapped_arrival_solves;
  }
  const Status warmed = WarmCatalogLogged(query);
  if (!warmed.ok()) {
    SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
                options_.watchdog.admit_budget_ms,
                &stats_.admit_budget_breaches);
    return warmed;
  }
  Result<AdmissionProposal> proposal = planner_.ProposeAdmission(query);
  if (!proposal.ok()) {
    SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
                options_.watchdog.admit_budget_ms,
                &stats_.admit_budget_breaches);
    return proposal.status();
  }

  if (options_.inject_between_propose_and_commit) {
    options_.inject_between_propose_and_commit(planner_);
  }
  Stopwatch commit_watch;
  double solve_wall_ms = proposal->stats.wall_ms;
  bool committed_via_delta = true;
  Result<PlanningStats> stats = planner_.CommitProposal(*proposal);
  SampleStage(&stats_.commit_ms, commit_watch.ElapsedMillis(),
              options_.watchdog.commit_budget_ms,
              &stats_.commit_budget_breaches);
  if (!stats.ok() && stats.status().IsFailedPrecondition()) {
    // The strict version gate bounced the proposal: the conflict
    // re-solves of a round commit (which call back into Admit while
    // younger rounds are in flight) and test injection can both land a
    // commit between this arrival's propose and commit. Re-solve as a
    // fresh propose/commit pair against the live state — adjacent on
    // the loop thread, so the retry cannot conflict again — and sample
    // each leg where an inline solve would have: the fresh solve's wall
    // time into solve_ms, the fresh commit's into commit_ms, so
    // conflict re-solves are indistinguishable in the histograms from
    // solves that never conflicted. (The bounced proposal's solve time
    // was thrown away with the proposal; its failed commit was already
    // sampled above, like any other commit attempt.)
    ++stats_.commit_conflicts;
    committed_via_delta = false;
    Result<AdmissionProposal> fresh = planner_.ProposeAdmission(query);
    if (fresh.ok()) {
      solve_wall_ms = fresh->stats.wall_ms;
      Stopwatch retry_watch;
      stats = planner_.CommitProposal(*fresh);
      SampleStage(&stats_.commit_ms, retry_watch.ElapsedMillis(),
                  options_.watchdog.commit_budget_ms,
                  &stats_.commit_budget_breaches);
    } else {
      stats = fresh.status();
    }
  }
  if (stats.ok()) {
    CountSolveStats(*stats);
    AuditDeadlineBreach(query, *stats);
    if (!stats->already_served && !stats->via_cache) {
      SampleStage(&stats_.solve_ms, solve_wall_ms,
                  options_.watchdog.solve_budget_ms,
                  &stats_.solve_budget_breaches);
    }
    if (stats->admitted && !stats->already_served) {
      // The committed delta is exactly what the reuse index must learn.
      // After a conflict, deliberately schedule a full rebuild instead
      // of feeding the retry's delta: the bounced proposal is evidence
      // this admission raced other committed changes, and the rebuild's
      // grounded fixpoint re-derives the index from the merged truth
      // rather than trusting a delta chain across the conflict.
      if (committed_via_delta) {
        MarkCacheDelta(proposal->delta);
      } else {
        MarkCacheRebuild();
      }
    }
  }
  SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
              options_.watchdog.admit_budget_ms,
              &stats_.admit_budget_breaches);
  return stats;
}

void PlanningService::CountSolveStats(const PlanningStats& stats) {
  if (stats.model_patched) ++stats_.model_patches;
  if (stats.model_rebuilt) ++stats_.model_rebuilds;
  if (stats.warm_started) ++stats_.warm_starts;
  if (stats.basis_discarded) ++stats_.basis_discards;
  if (stats.deadline_hit) ++stats_.solver_deadline_breaches;
  if (stats.admitted && stats.admitted_via_heuristic) {
    ++stats_.heuristic_fallbacks;
  }
}

Status PlanningService::WarmCatalogLogged(StreamId query) {
  // First-call order, recorded regardless of outcome: a restore must
  // replay failing warms too, so the catalog reaches the same partial
  // interning state a graceful exhaustion left behind.
  if (warm_logged_.insert(query).second) warm_log_.push_back(query);
  Status warmed = planner_.WarmCatalog(query);
  if (warmed.IsResourceExhausted()) ++stats_.catalog_exhausted;
  return warmed;
}

void PlanningService::AuditDeadlineBreach(StreamId query,
                                          const PlanningStats& stats) const {
  if (!AuditOn() || !stats.deadline_hit) return;
  obs::AuditRecord r = AuditBase("solve.deadline");
  // Wall-clock-driven with a positive budget, so never canonical.
  r.speculative = true;
  r.query = query;
  r.detail = !stats.admitted                ? 3
             : stats.admitted_via_heuristic ? 2
                                            : 1;
  r.solve_ms = stats.wall_ms;
  AuditAppend(std::move(r));
}

void PlanningService::RememberRejected(StreamId query) {
  if (!options_.retry_rejected_on_join) return;
  if (std::find(rejected_recently_.begin(), rejected_recently_.end(),
                query) != rejected_recently_.end()) {
    return;
  }
  rejected_recently_.push_back(query);
  while (static_cast<int>(rejected_recently_.size()) >
         std::max(0, options_.max_rejected_remembered)) {
    rejected_recently_.pop_front();
  }
}

void PlanningService::HandleArrival(const Event& event,
                                    EventOutcome* outcome) {
  ++stats_.arrivals;
  obs::AuditRecord ar;
  if (AuditOn()) {
    ar = AuditBase("");
    ar.query = event.query;
    AuditFingerprint(&ar, /*post=*/false);
  }
  Result<PlanningStats> stats = Admit(event.query, &outcome->reuse_candidates);
  const char* kind;
  if (!stats.ok()) {
    SQPR_LOG_WARN << "arrival of query " << event.query
                  << " failed: " << stats.status().ToString();
    ++stats_.rejected;
    // Catalog exhaustion is permanent for this process: do NOT remember
    // the query for retry-on-join — a bigger cluster cannot un-fill the
    // interning stores.
    kind = stats.status().IsResourceExhausted() ? "reject.exhausted"
                                                : "reject.error";
  } else {
    outcome->admitted = stats->admitted;
    outcome->already_served = stats->already_served;
    outcome->via_cache = stats->via_cache;
    if (stats->already_served) {
      ++stats_.dedup_hits;
      ++stats_.admitted;
      kind = "admit.dedup";
    } else if (stats->admitted) {
      ++stats_.admitted;
      if (stats->via_cache) ++stats_.cache_fast_path;
      kind = stats->via_cache ? "admit.cache" : "admit.solve";
    } else {
      ++stats_.rejected;
      RememberRejected(event.query);
      kind = "reject.capacity";
      // A deadline-truncated solve may have rejected a query the full
      // search would have placed. Give it exactly one more chance on the
      // re-planning path; once per query, or a permanently infeasible
      // query would ping-pong forever under a tiny budget.
      if (stats->deadline_hit &&
          deadline_retried_.insert(event.query).second) {
        scheduler_.Enqueue(event.query);
      }
    }
  }
  if (AuditOn()) {
    ar.kind = kind;
    ar.detail = outcome->reuse_candidates;
    if (stats.ok()) ar.solve_ms = stats->wall_ms;
    AuditFingerprint(&ar, /*post=*/true);
    AuditAppend(std::move(ar));
  }
}

void PlanningService::HandleDeparture(const Event& event,
                                      EventOutcome* outcome) {
  (void)outcome;
  ++stats_.departures;
  obs::AuditRecord dr;
  if (AuditOn()) {
    dr = AuditBase("");
    dr.query = event.query;
    AuditFingerprint(&dr, /*post=*/false);
  }
  scheduler_.Discard(event.query);
  // A query sits in at most one in-flight round (re-enqueues only
  // happen at barriers, which drain the pipeline first), but scan them
  // all: the discard must land in the round that carries it.
  for (InFlightRound& round : inflight_) {
    if (std::find(round.queries.begin(), round.queries.end(), event.query) !=
        round.queries.end()) {
      round.discards.insert(event.query);
      break;
    }
  }
  auto it = std::find(rejected_recently_.begin(), rejected_recently_.end(),
                      event.query);
  if (it != rejected_recently_.end()) rejected_recently_.erase(it);

  const uint64_t structure_before = deployment().structure_version();
  const HostId served_at = deployment().ServingHost(event.query);
  const Status st = planner_.RemoveQuery(event.query);
  // NotFound: never admitted (or already departed). Other hard errors
  // are logged; both leave the deployment untouched.
  const bool removed = st.ok() || st.IsResourceExhausted();
  if (!removed && !st.IsNotFound()) {
    SQPR_LOG_WARN << "departure of query " << event.query
                  << " failed: " << st.ToString();
  }
  if (removed) {
    if (deployment().structure_version() == structure_before + 1) {
      // Exactly one mutation: the serving arc cleared and the GC found
      // nothing unshared to reclaim (the support is shared with
      // surviving queries). Groundedness is untouched — a pure serving
      // delta.
      MarkCacheServing(event.query, served_at, kInvalidHost);
    } else {
      MarkCacheRebuild();
    }
  }
  if (AuditOn()) {
    dr.kind = removed ? "depart.served" : "depart.unknown";
    if (removed) dr.host = served_at;
    AuditFingerprint(&dr, /*post=*/true);
    AuditAppend(std::move(dr));
  }
}

Status PlanningService::HandleHostFailure(const Event& event,
                                          EventOutcome* outcome) {
  ++stats_.host_failures;
  const HostId h = event.host;
  if (h < 0 || h >= cluster_->num_hosts()) {
    return Status::InvalidArgument("unknown host " + std::to_string(h));
  }
  if (failed_hosts_.count(h) > 0) return Status::OK();  // already down
  obs::AuditRecord hr;
  if (AuditOn()) {
    hr = AuditBase("host.failure");
    hr.host = h;
    AuditFingerprint(&hr, /*post=*/false);
  }

  // Zero the budgets first so every constraint (and the post-removal
  // audits) immediately sees the host as unusable, then clear its
  // fallout. Operators and flows indexed by HostId stay addressable.
  HostSpec dead;
  dead.cpu = 0.0;
  dead.nic_out_mbps = 0.0;
  dead.nic_in_mbps = 0.0;
  dead.mem_mb = 0.0;
  dead.name = cluster_->host(h).name;
  failed_hosts_[h] = cluster_->host(h);
  cluster_->SetHostSpec(h, dead);

  Result<std::vector<StreamId>> evicted = planner_.EvictHost(h);
  if (!evicted.ok()) return evicted.status();
  for (StreamId q : *evicted) {
    if (AuditOn()) {
      obs::AuditRecord er = AuditBase("evict.host_failure");
      er.query = q;
      er.host = h;
      AuditAppend(std::move(er));
    }
    scheduler_.Enqueue(q);
    ++outcome->evicted;
    ++stats_.evictions;
  }
  // Structural removals: full rebuild (a no-op skip when the failed
  // host carried nothing and the purge removed nothing).
  MarkCacheRebuild();
  if (AuditOn()) {
    hr.detail = static_cast<int64_t>(evicted->size());
    AuditFingerprint(&hr, /*post=*/true);
    AuditAppend(std::move(hr));
  }
  return Status::OK();
}

Status PlanningService::HandleHostJoin(const Event& event,
                                       EventOutcome* outcome) {
  (void)outcome;
  ++stats_.host_joins;
  const HostId h = event.host;
  if (h < 0 || h >= cluster_->num_hosts()) {
    return Status::InvalidArgument("unknown host " + std::to_string(h));
  }
  auto it = failed_hosts_.find(h);
  if (it == failed_hosts_.end()) return Status::OK();  // already active
  obs::AuditRecord jr;
  if (AuditOn()) {
    jr = AuditBase("host.join");
    jr.host = h;
    AuditFingerprint(&jr, /*post=*/false);
  }
  cluster_->SetHostSpec(h, it->second);
  failed_hosts_.erase(it);

  // Fresh capacity: give recently rejected queries another chance
  // through the bounded rounds.
  int retried = 0;
  if (options_.retry_rejected_on_join) {
    for (StreamId q : rejected_recently_) {
      if (scheduler_.Enqueue(q)) ++retried;
    }
    rejected_recently_.clear();
  }
  if (AuditOn()) {
    jr.detail = retried;
    AuditFingerprint(&jr, /*post=*/true);
    AuditAppend(std::move(jr));
  }
  return Status::OK();
}

Status PlanningService::HandleMonitorReport(const Event& event,
                                            EventOutcome* outcome) {
  ++stats_.monitor_reports;
  obs::AuditRecord r;
  if (AuditOn()) {
    r = AuditBase("drift.report");
    r.aux = static_cast<int64_t>(event.measured_base_rates.size());
    AuditFingerprint(&r, /*post=*/false);
  }
  const int evicted_before = outcome->evicted;
  Status st = ApplyMonitorData(event.measured_base_rates,
                               event.cpu_utilization, outcome);
  if (AuditOn() && st.ok()) {
    r.detail = outcome->evicted - evicted_before;
    AuditFingerprint(&r, /*post=*/true);
    AuditAppend(std::move(r));
  }
  return st;
}

Status PlanningService::ApplyMonitorData(
    const std::map<StreamId, double>& measured_rates,
    const std::vector<double>& cpu_utilization, EventOutcome* outcome) {
  const uint64_t structure_before = deployment().structure_version();
  const DriftReport report =
      monitor_.Analyze(measured_rates, cpu_utilization,
                       planner_.admitted_queries(), &deployment());

  // Note: the cycle's install step runs even when the report flags
  // nothing — sub-threshold measurements are still installed (matching
  // AdaptiveReplan), so estimates converge instead of sitting
  // permanently just under the drift threshold.
  //
  // The §IV-B remove+install+evict cycle itself is the shared
  // RunDriftCycle; this call site's re-admission sink is the bounded
  // scheduler (AdaptiveReplan's is immediate re-admission).
  SQPR_RETURN_IF_ERROR(RunDriftCycle(
      &planner_, catalog_, measured_rates, report,
      [this, outcome](StreamId q) {
        if (AuditOn()) {
          obs::AuditRecord er = AuditBase("evict.drift");
          er.query = q;
          AuditAppend(std::move(er));
        }
        scheduler_.Enqueue(q);
        ++outcome->evicted;
        ++stats_.evictions;
      }));

  // Rate updates alone do not change groundedness, so rebuild only on
  // structural fallout. The structure-version check (not the eviction
  // count) is the gate: the drift cycle's shortage step can purge
  // *residual* support via an EvictHost pass that removes operators
  // and flows without evicting a single query — fallout an eviction
  // count misses, which would leave the incremental cache stale
  // indefinitely.
  if (deployment().structure_version() != structure_before) {
    MarkCacheRebuild();
  }
  return Status::OK();
}

Status PlanningService::HandleSelfMeasurement(EventOutcome* outcome) {
  ++stats_.measurement_ticks;
  if (telemetry_->options().mode == MeasureMode::kAnalytic) {
    ++stats_.analytic_ticks;
  }
  outcome->measured = true;
  SQPR_TRACE_SPAN("service/measure");
  Stopwatch measure_watch;
  Result<Measurement> measurement =
      telemetry_->Measure(deployment(), clock_.now_ms());
  SampleStage(&stats_.measure_ms, measure_watch.ElapsedMillis(),
              options_.watchdog.measure_budget_ms,
              &stats_.measure_budget_breaches);
  if (!measurement.ok()) {
    // A failed measurement must not take the loop down — skip the
    // reporting period. Deterministic: the measurement is a pure
    // function of the committed deployment, identical across replays.
    SQPR_LOG_WARN << "self-measurement failed: "
                  << measurement.status().ToString();
    return Status::OK();
  }
  if (AuditOn()) {
    obs::AuditRecord mr = AuditBase("measure.tick");
    mr.aux = measurement->index;
    mr.detail = static_cast<int64_t>(measurement->measured_base_rates.size());
    AuditAppend(std::move(mr));
  }
  obs::AuditRecord dr;
  if (AuditOn()) {
    dr = AuditBase("drift.measure");
    AuditFingerprint(&dr, /*post=*/false);
  }
  const int evicted_before = outcome->evicted;
  SQPR_RETURN_IF_ERROR(ApplyMonitorData(measurement->measured_base_rates,
                                        measurement->cpu_utilization,
                                        outcome));
  // An eviction here means the service detected drift in its *own*
  // measurement and queued re-planning with no scripted report — the
  // closed loop the counter makes visible.
  if (outcome->evicted > evicted_before) ++stats_.auto_replan_rounds;
  if (AuditOn()) {
    dr.detail = outcome->evicted - evicted_before;
    AuditFingerprint(&dr, /*post=*/true);
    AuditAppend(std::move(dr));
  }
  return Status::OK();
}

void PlanningService::DrainReplanRounds(EventOutcome* outcome) {
  // Commit the oldest round — dispatched at least one event ago; with
  // workers it had that event's entire processing to solve in the
  // background — then top the pipeline back up against the state as of
  // *this* event's mutations. Committing before filling means a round
  // dispatched here never commits here: its pinned point is the next
  // event, at every depth. Identical for every worker count: with
  // workers == 0 the dispatches below solve synchronously, producing
  // exactly the proposals a pool would have computed from snapshots
  // taken at the same points.
  CommitOldestRound(outcome);
  const int depth = std::max(1, options_.replan.pipeline_depth);
  while (static_cast<int>(inflight_.size()) < depth &&
         scheduler_.HasPending()) {
    DispatchReplanRound();
  }
}

void PlanningService::DispatchReplanRound() {
  if (!scheduler_.HasPending()) return;

  SQPR_TRACE_SPAN_ARGS(span, "service/round.dispatch", "round", "queries");
  InFlightRound flight;
  flight.id = next_round_id_++;
  flight.queries = scheduler_.NextRound();
  // Pre-intern, on this thread, everything a solve for these queries
  // can touch in the shared catalog. This keeps StreamId assignment at
  // a deterministic point (worker scheduling must never decide intern
  // order) and makes the round's catalog accesses pure reads.
  for (StreamId q : flight.queries) {
    const Status warmed = WarmCatalogLogged(q);
    if (!warmed.ok()) {
      SQPR_LOG_WARN << "warming catalog for query " << q
                    << " failed: " << warmed.ToString();
    }
  }
  flight.proposals = std::make_shared<std::vector<Result<AdmissionProposal>>>(
      flight.queries.size(),
      Result<AdmissionProposal>(Status::Internal("not solved yet")));
  flight.latch = std::make_shared<Latch>(
      static_cast<int>(flight.queries.size()));
  if (pool_ == nullptr) {
    // Inline mode: the speculative solves run right here against the
    // live planner — the same inputs a snapshot taken at this point
    // would give a worker, so the proposals (and everything downstream
    // of the shared commit path) are bit-identical across worker
    // counts. With pipeline_depth > 1 this round may be speculating
    // past an uncommitted older round, exactly like a worker would:
    // the live planner holds only *committed* state, so the solve sees
    // the same snapshot-equivalent view.
    for (size_t i = 0; i < flight.queries.size(); ++i) {
      (*flight.proposals)[i] = planner_.ProposeAdmission(flight.queries[i]);
      flight.latch->CountDown();
    }
  } else {
    // Copy-on-write snapshot: a shared immutable core plus the mutation
    // journal since the last rebase — O(changes) on the loop thread.
    // The first worker to need it materialises the full planner copy
    // off this thread (the deep copy the dispatch used to pay here).
    SqprPlanner::SnapshotStats snap_stats;
    {
      SQPR_TRACE_SPAN_ARGS(snap_span, "service/snapshot.make", "bytes_copied",
                           "rebased");
      flight.snapshot = planner_.MakeSnapshot(&snap_stats);
      snap_span.set_args(snap_stats.bytes_copied, snap_stats.rebased ? 1 : 0);
    }
    stats_.snapshot_bytes_copied +=
        static_cast<int64_t>(snap_stats.bytes_copied);
    if (snap_stats.rebased) ++stats_.snapshot_rebases;
    for (size_t i = 0; i < flight.queries.size(); ++i) {
      // Tasks capture the shared state by value, never `this`: the
      // pool's destructor (which drains and joins) is then always safe.
      pool_->Submit([snapshot = flight.snapshot, proposals = flight.proposals,
                     latch = flight.latch, i, query = flight.queries[i]] {
        (*proposals)[i] = snapshot->ProposeAdmission(query);
        latch->CountDown();
      });
    }
  }
  span.set_args(flight.id, flight.queries.size());
  if (AuditOn()) {
    obs::AuditRecord r = AuditBase("round.dispatch");
    r.speculative = true;
    r.detail = static_cast<int64_t>(flight.queries.size());
    r.dispatch_id = flight.id;
    r.streams.assign(flight.queries.begin(), flight.queries.end());
    AuditAppend(std::move(r));
  }
  inflight_.push_back(std::move(flight));
  ++stats_.replan_dispatches;
  // Crash point: a round has been dispatched but not committed. A
  // checkpoint taken before this event never saw the round, so restore
  // re-derives it from the scheduler groups.
  fault::MaybeCrash("mid-round");
}

void PlanningService::CommitOldestRound(EventOutcome* outcome) {
  if (inflight_.empty()) return;
  InFlightRound flight = std::move(inflight_.front());
  inflight_.pop_front();

  SQPR_TRACE_SPAN_ARGS(span, "service/round.commit", "round", "queries");
  span.set_args(flight.id, flight.queries.size());
  Stopwatch wait;
  {
    SQPR_TRACE_SPAN("service/round.barrier");
    flight.latch->Wait();
  }
  const double barrier_wall_ms = wait.ElapsedMillis();
  SampleStage(&stats_.barrier_ms, barrier_wall_ms,
              options_.watchdog.barrier_budget_ms,
              &stats_.barrier_budget_breaches);

  ++stats_.replan_rounds;
  // Canonical round sequencing: a round that commits with at least one
  // un-departed query consumes the next sequence number. Rounds whose
  // every query departed in flight exist only at depth > 1 (depth 1
  // discards them in the scheduler before dispatch), so they must not
  // number — the journal's round column stays depth-invariant.
  std::vector<int64_t> live;
  for (StreamId q : flight.queries) {
    if (flight.discards.count(q) == 0) live.push_back(q);
  }
  int64_t round_seq = -1;
  obs::AuditRecord round_r;
  if (AuditOn() && !live.empty()) {
    round_seq = audit_round_seq_++;
    round_r = AuditBase("replan.round");
    round_r.round = round_seq;
    round_r.detail = static_cast<int64_t>(live.size());
    round_r.streams = live;
    round_r.dispatch_id = flight.id;
    round_r.commit_ms = barrier_wall_ms;
    AuditFingerprint(&round_r, /*post=*/false);
  }
  for (size_t i = 0; i < flight.queries.size(); ++i) {
    const StreamId q = flight.queries[i];
    const Result<AdmissionProposal>& proposal = (*flight.proposals)[i];
    if (flight.discards.count(q) > 0) {
      // Departed after dispatch: drop the proposal — the async twin of
      // the scheduler discard a depth-1 service performed directly (and
      // audited there), hence speculative here.
      if (AuditOn()) {
        obs::AuditRecord r = AuditBase("replan.discard");
        r.speculative = true;
        r.query = q;
        r.dispatch_id = flight.id;
        AuditAppend(std::move(r));
      }
      continue;
    }

    bool resolved = false;
    bool admitted = false;
    bool solve_failed = false;
    double solve_wall_ms = -1.0;
    double commit_wall_ms = -1.0;
    if (proposal.ok()) {
      solve_wall_ms = proposal->stats.wall_ms;
      SampleStage(&stats_.solve_ms, solve_wall_ms,
                  options_.watchdog.solve_budget_ms,
                  &stats_.solve_budget_breaches);
      Stopwatch commit_watch;
      Result<PlanningStats> committed = planner_.CommitProposal(*proposal);
      commit_wall_ms = commit_watch.ElapsedMillis();
      SampleStage(&stats_.commit_ms, commit_wall_ms,
                  options_.watchdog.commit_budget_ms,
                  &stats_.commit_budget_breaches);
      if (committed.ok()) {
        resolved = true;
        CountSolveStats(*committed);
        AuditDeadlineBreach(q, *committed);
        admitted = committed->admitted;
        if (admitted && !committed->already_served) {
          MarkCacheDelta(proposal->delta);
        }
      } else if (!committed.status().IsFailedPrecondition()) {
        // Hard error (malformed input) — mirrors an inline solve error.
        SQPR_LOG_WARN << "committing proposal for query " << q
                      << " failed: " << committed.status().ToString();
        resolved = true;
        solve_failed = true;
      }
      // FailedPrecondition: the strict version gate found the committed
      // state structurally diverged from the proposal's base — an
      // arrival, a departure with fallout, an earlier commit in this
      // round, or (depth > 1) a whole older round committed since this
      // round's snapshot. Fall through to a synchronous re-solve
      // against the live state — still deterministic, since it depends
      // only on the commit order, and warm: the model cache and the
      // artifacts installed by whichever commit caused the conflict
      // are exactly the structures the retry re-solves against.
    } else {
      SQPR_LOG_WARN << "speculative solve for query " << q
                    << " failed: " << proposal.status().ToString();
      resolved = true;
      solve_failed = true;
    }

    if (!resolved) {
      ++stats_.commit_conflicts;
      // Conflict counts are depth-variant (deeper pipelines speculate
      // across more uncommitted state), so the record is speculative;
      // the resolution below lands in the canonical per-query record.
      if (AuditOn()) {
        obs::AuditRecord r = AuditBase("replan.conflict");
        r.speculative = true;
        r.query = q;
        r.round = round_seq;
        r.dispatch_id = flight.id;
        AuditAppend(std::move(r));
      }
      Result<PlanningStats> stats =
          Admit(q, nullptr, /*arrival=*/false);
      admitted = stats.ok() && stats->admitted;
      solve_failed = !stats.ok();
      if (stats.ok()) solve_wall_ms = stats->wall_ms;
    }

    if (admitted) {
      ++outcome->replanned_admitted;
      ++stats_.replanned_admitted;
    } else {
      ++outcome->replanned_rejected;
      ++stats_.replanned_rejected;
      if (!solve_failed) RememberRejected(q);
    }

    if (AuditOn()) {
      obs::AuditRecord r = AuditBase(admitted ? "replan.admit"
                                    : solve_failed ? "replan.fail"
                                                   : "replan.reject");
      r.query = q;
      r.round = round_seq;
      r.solve_ms = solve_wall_ms;
      r.commit_ms = commit_wall_ms;
      r.dispatch_id = flight.id;
      AuditAppend(std::move(r));
    }
  }
  if (AuditOn() && !live.empty()) {
    AuditFingerprint(&round_r, /*post=*/true);
    AuditAppend(std::move(round_r));
  }
}

void PlanningService::UnwindYoungestRound() {
  InFlightRound flight = std::move(inflight_.back());
  inflight_.pop_back();

  SQPR_TRACE_SPAN_ARGS(span, "service/round.unwind", "round", "queries");
  Stopwatch wait;
  {
    // The proposals are dropped unread, but the solves must still
    // quiesce: workers read the shared catalog, and the barrier handler
    // about to run rewrites published entries in place
    // (Catalog::UpdateBaseRate, host spec swaps).
    SQPR_TRACE_SPAN("service/round.barrier");
    flight.latch->Wait();
  }
  SampleStage(&stats_.barrier_ms, wait.ElapsedMillis(),
              options_.watchdog.barrier_budget_ms,
              &stats_.barrier_budget_breaches);

  std::vector<StreamId> requeue;
  requeue.reserve(flight.queries.size());
  for (StreamId q : flight.queries) {
    if (flight.discards.count(q) == 0) requeue.push_back(q);
  }
  span.set_args(flight.id, requeue.size());
  if (AuditOn()) {
    obs::AuditRecord r = AuditBase("round.unwind");
    r.speculative = true;
    r.detail = static_cast<int64_t>(requeue.size());
    r.dispatch_id = flight.id;
    r.streams.assign(requeue.begin(), requeue.end());
    AuditAppend(std::move(r));
  }
  // Front of the scheduler, as one group: the next dispatch pops this
  // exact round again. Discarded (departed) queries stay out, matching
  // the scheduler discard a depth-1 service performed directly.
  scheduler_.Requeue(requeue);
  ++stats_.round_unwinds;
}

void PlanningService::RetireAllRounds(EventOutcome* outcome) {
  // The oldest round's pinned commit point coincides with the barrier,
  // so it commits; every younger round is ahead of its point and
  // unwinds instead. Committing them here would move their solves
  // before the barrier's rate/spec installation — state depth 1 only
  // lets them see *after* it — breaking cross-depth bit-identity.
  // Unwinding youngest-first stacks the requeued groups so the oldest
  // unwound round ends up frontmost, preserving FIFO order.
  CommitOldestRound(outcome);
  while (!inflight_.empty()) {
    UnwindYoungestRound();
  }
}

Event PlanningService::MonitorReportFromSim(int64_t time_ms,
                                            const SimReport& report) const {
  std::map<StreamId, double> base_rates;
  for (const auto& [s, rate] : report.measured_rate_mbps) {
    if (s >= 0 && s < catalog_->num_streams() &&
        catalog_->stream(s).is_base) {
      base_rates[s] = rate;
    }
  }
  return Event::MonitorReport(time_ms, std::move(base_rates),
                              report.cpu_utilization);
}

}  // namespace sqpr
