#include "service/planning_service.h"

#include <algorithm>
#include <cmath>
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
           : admitted     ? " admit"
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
      cache_(&planner_.deployment()),
      scheduler_(options.replan) {
  SQPR_CHECK(cluster != nullptr && catalog != nullptr);
  if (options_.closed_loop) {
    telemetry_ =
        std::make_unique<MeasurementEngine>(catalog, options_.telemetry);
  }
  // The scheduler audits its own enqueue/discard decisions;
  // it shares the service's journal and virtual clock.
  scheduler_.set_audit(options_.audit, &clock_);
}

obs::MetricsSnapshot ServiceMetrics(const ServiceStats& stats) {
  obs::MetricsSnapshot snap;
  for (const ServiceCounterField& f : kServiceCounterFields) {
    snap.counters[std::string("service.") + f.name] = stats.*f.member;
  }
  for (const ServiceHistogramField& f : kServiceHistogramFields) {
    snap.histograms[std::string("service.") + f.name] = stats.*f.member;
  }
  return snap;
}

MetricsSeries::MetricsSeries(int64_t interval_ms, bool openmetrics,
                             int64_t start_ms, const ServiceStats& start)
    : interval_ms_(interval_ms),
      openmetrics_(openmetrics),
      prev_(ServiceMetrics(start)) {
  SQPR_CHECK(interval_ms > 0 && start_ms >= 0);
  next_sample_ms_ = (start_ms / interval_ms + 1) * interval_ms;
  if (!openmetrics_) {
    text_ += "{\"schema\":\"sqpr-metrics-series-v1\",\"interval_ms\":" +
             std::to_string(interval_ms_) + "}\n";
  }
}

void MetricsSeries::SampleThrough(int64_t now_ms, const ServiceStats& stats) {
  while (now_ms >= next_sample_ms_) {
    Sample(next_sample_ms_, stats);
    next_sample_ms_ += interval_ms_;
  }
}

void MetricsSeries::Sample(int64_t t_ms, const ServiceStats& stats) {
  obs::MetricsSnapshot cum = ServiceMetrics(stats);
  if (openmetrics_) {
    text_ += cum.ToOpenMetrics({{"t_ms", std::to_string(t_ms)}});
  } else {
    text_ += "{\"t_ms\":" + std::to_string(t_ms) + ",\"cum\":" + cum.ToJson() +
             ",\"delta\":" + cum.DeltaSince(prev_).ToJson() + "}\n";
  }
  prev_ = std::move(cum);
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

Status PlanningService::Enqueue(const Event& event) {
  SQPR_TRACE_SPAN("service/enqueue");
  if (event.time_ms < clock_.now_ms()) {
    return Status::InvalidArgument(
        "event at t=" + std::to_string(event.time_ms) +
        " is before the virtual clock (t=" + std::to_string(clock_.now_ms()) +
        ")");
  }
  queue_.Push(event);
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

  // Barrier events install measured rates (catalog entries rewritten in
  // place) or swap host specs. The pending round was popped against the
  // state before them, so its commit point is here, before the handler:
  // its queries are solved under the old rates and specs.
  switch (event.kind) {
    case EventKind::kHostFailure:
    case EventKind::kHostJoin:
    case EventKind::kMonitorReport:
      CommitPendingRound(&outcome);
      break;
    case EventKind::kTick:
      // A measuring tick is a monitor report the service writes itself:
      // it crosses the same barrier before installing measured rates.
      if (MeasurementDue()) CommitPendingRound(&outcome);
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
  if (round_.empty()) return;
  EventOutcome scratch;  // results land in the aggregate stats_
  CommitPendingRound(&scratch);
}

Result<PlanningStats> PlanningService::Admit(StreamId query,
                                             int* reuse_candidates) {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " + std::to_string(query));
  }

  SQPR_TRACE_SPAN("service/admit");
  Stopwatch watch;

  if (reuse_candidates != nullptr) {
    *reuse_candidates =
        static_cast<int>(cache_.OnArrival(query).partial.size());
  }

  // Authoritative dedup (Algorithm 1 line 3), before any catalog work.
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

  // Not served: solve. WarmCatalog pre-interns the query's join closure
  // — the only catalog *writes* a solve needs — so StreamId assignment
  // stays at a deterministic point (a no-op for round queries, interned
  // when their round was popped). The solve runs against the committed
  // deployment and commits in place.
  const Status warmed = WarmCatalogLogged(query);
  Result<PlanningStats> stats =
      warmed.ok() ? planner_.SubmitQuery(query) : Result<PlanningStats>(warmed);
  if (stats.ok()) {
    CountSolveStats(*stats);
    AuditDeadlineBreach(query, *stats);
    if (!stats->already_served) {
      SampleStage(&stats_.solve_ms, stats->wall_ms,
                  options_.watchdog.solve_budget_ms,
                  &stats_.solve_budget_breaches);
    }
    if (stats->admitted && !stats->already_served) {
      // A rejection commits nothing, so it has no commit stage.
      SampleStage(&stats_.commit_ms, stats->commit_ms,
                  options_.watchdog.commit_budget_ms,
                  &stats_.commit_budget_breaches);
    }
  }
  SampleStage(&stats_.admit_ms, watch.ElapsedMillis(),
              options_.watchdog.admit_budget_ms,
              &stats_.admit_budget_breaches);
  return stats;
}

void PlanningService::CountSolveStats(const PlanningStats& stats) {
  stats_.solver_nodes += stats.solver_nodes;
  stats_.lp_iterations += stats.lp_iterations;
  stats_.lp_factorizations += stats.lp_factorizations;
  stats_.lp_dual_solves += stats.lp_dual_solves;
  stats_.lp_slack_start_iterations += stats.lp_slack_start_iterations;
  stats_.rejected_candidates += stats.rejected_candidates;
  if (stats.screened) ++stats_.screened_rejections;
  if (!stats.admitted) {
    stats_.rejected_solver_nodes += stats.solver_nodes;
    stats_.rejected_lp_iterations += stats.lp_iterations;
  }
  if (stats.model_patched) ++stats_.model_patches;
  if (stats.model_rebuilt) ++stats_.model_rebuilds;
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
  if (std::find(rejected_recently_.begin(), rejected_recently_.end(),
                query) != rejected_recently_.end()) {
    return;
  }
  rejected_recently_.push_back(query);
  if (rejected_recently_.size() > kMaxRejectedRemembered) {
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
    if (stats->already_served) {
      ++stats_.dedup_hits;
      ++stats_.admitted;
      kind = "admit.dedup";
    } else if (stats->admitted) {
      ++stats_.admitted;
      kind = "admit.solve";
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
  if (std::find(round_.begin(), round_.end(), event.query) != round_.end()) {
    round_departed_.insert(event.query);
  }
  auto it = std::find(rejected_recently_.begin(), rejected_recently_.end(),
                      event.query);
  if (it != rejected_recently_.end()) rejected_recently_.erase(it);

  const HostId served_at = deployment().ServingHost(event.query);
  const Status st = planner_.RemoveQueries({event.query});
  // NotFound: never admitted (or already departed). Other hard errors
  // are logged; both leave the deployment untouched.
  const bool removed = st.ok() || st.IsResourceExhausted();
  if (!removed && !st.IsNotFound()) {
    SQPR_LOG_WARN << "departure of query " << event.query
                  << " failed: " << st.ToString();
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

  // A zero-budget host is over budget while anything runs on, flows
  // through or is served from it, so the shortage loop evicts exactly
  // the queries whose plans use it, in admission order. Leftovers that
  // cost nothing never put it over budget: purge them too (a no-op when
  // the loop already purged).
  const int evicted_before = outcome->evicted;
  auto evict = [&](StreamId q) {
    QueueEvicted(q, "evict.host_failure", h, outcome);
  };
  SQPR_RETURN_IF_ERROR(EvictOverBudget(&planner_, evict));
  Result<std::vector<StreamId>> purged = planner_.PurgeHost(h);
  if (!purged.ok()) return purged.status();
  for (StreamId q : *purged) evict(q);
  if (AuditOn()) {
    hr.detail = outcome->evicted - evicted_before;
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
  for (StreamId q : rejected_recently_) {
    if (scheduler_.Enqueue(q)) ++retried;
  }
  rejected_recently_.clear();
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
  const DriftReport report =
      monitor_.Analyze(measured_rates, cpu_utilization,
                       planner_.admitted_queries(), deployment());

  // Note: the cycle's install step runs even when the report flags
  // nothing — sub-threshold measurements are still installed, so
  // estimates converge instead of sitting permanently just under the
  // drift threshold.
  //
  // The §IV-B remove+install+evict cycle itself is RunDriftCycle; this
  // call site's re-admission sink is the bounded scheduler.
  return RunDriftCycle(&planner_, catalog_, measured_rates, report,
                       [this, outcome](StreamId q) {
                         QueueEvicted(q, "evict.drift", kInvalidHost, outcome);
                       });
}

void PlanningService::QueueEvicted(StreamId q, const char* kind, HostId host,
                                   EventOutcome* outcome) {
  if (AuditOn()) {
    obs::AuditRecord er = AuditBase(kind);
    er.query = q;
    er.host = host;
    AuditAppend(std::move(er));
  }
  scheduler_.Enqueue(q);
  ++outcome->evicted;
  ++stats_.evictions;
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
  // Commit before popping: a round popped here never commits here, its
  // commit point is the next event.
  CommitPendingRound(outcome);
  if (!scheduler_.HasPending()) return;
  round_ = scheduler_.NextRound();
  // Intern now, not at the commit: the next event's arrivals intern
  // too, and interning order decides StreamId assignment.
  for (StreamId q : round_) {
    const Status warmed = WarmCatalogLogged(q);
    if (!warmed.ok()) {
      SQPR_LOG_WARN << "warming catalog for query " << q
                    << " failed: " << warmed.ToString();
    }
  }
  // Crash point: a round has been popped but not committed. A
  // checkpoint taken before this event never saw the round, so restore
  // re-derives it from the scheduler groups.
  fault::MaybeCrash("mid-round");
}

void PlanningService::CommitPendingRound(EventOutcome* outcome) {
  if (round_.empty()) return;
  const std::vector<StreamId> queries = std::exchange(round_, {});
  const std::set<StreamId> departed = std::exchange(round_departed_, {});

  SQPR_TRACE_SPAN_ARGS(span, "service/round.commit", "queries", nullptr);
  span.set_args(queries.size());
  ++stats_.replan_rounds;
  std::vector<int64_t> live;
  for (StreamId q : queries) {
    if (departed.count(q) == 0) live.push_back(q);
  }
  int64_t round_seq = -1;
  obs::AuditRecord round_r;
  if (AuditOn() && !live.empty()) {
    round_seq = audit_round_seq_++;
    round_r = AuditBase("replan.round");
    round_r.round = round_seq;
    round_r.detail = static_cast<int64_t>(live.size());
    round_r.streams = live;
    AuditFingerprint(&round_r, /*post=*/false);
  }
  for (StreamId q : queries) {
    if (departed.count(q) > 0) {
      if (AuditOn()) {
        obs::AuditRecord r = AuditBase("replan.discard");
        r.speculative = true;
        r.query = q;
        AuditAppend(std::move(r));
      }
      continue;
    }
    // Each query sees the commits of the ones before it.
    const Result<PlanningStats> stats = Admit(q, nullptr);
    const bool admitted = stats.ok() && stats->admitted;
    const bool solve_failed = !stats.ok();
    if (solve_failed) {
      SQPR_LOG_WARN << "re-planning query " << q
                    << " failed: " << stats.status().ToString();
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
      obs::AuditRecord r = AuditBase(admitted       ? "replan.admit"
                                     : solve_failed ? "replan.fail"
                                                    : "replan.reject");
      r.query = q;
      r.round = round_seq;
      if (stats.ok()) r.solve_ms = stats->wall_ms;
      AuditAppend(std::move(r));
    }
  }
  if (AuditOn() && !live.empty()) {
    AuditFingerprint(&round_r, /*post=*/true);
    AuditAppend(std::move(round_r));
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
