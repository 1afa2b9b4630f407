// Service churn bench: sustained load through the continuous
// PlanningService (no paper figure — this measures the event loop the
// paper assumes around the planner, §IV), in four scenarios:
//
//  * drift-heavy — arrival-heavy mix with steady departures, frequent
//    monitor drift reports and occasional host failures/rejoins: keeps
//    the re-planning rounds full.
//  * arrival-heavy — few evictions, lots of cache-miss arrivals, some
//    of them consumed while a round is pending.
//  * closed-loop — zero scripted monitor reports: the trace carries
//    ground-truth rate *trajectories* (constant/step/walk/periodic) and
//    the service measures its own committed deployment every few ticks
//    (§IV-C), detecting drift and re-planning entirely by itself (the
//    auto_replan_rounds counter). The scenario runs in BOTH measurement
//    modes — engine (ClusterSim per measuring tick) and analytic
//    (ledger-derived) — and checks the analytic per-measuring-tick cost
//    undercuts the engine's by >= 5x.
//  * checkpoint-overhead — the durability tax (docs/ARCHITECTURE.md
//    §9): times ExportCheckpoint / WriteFileAtomic / RestoreCheckpoint
//    on the drift-heavy trace's final state and byte-checks the
//    restore round-trip.
//
// Each scenario replays its trace twice. The solver is node-bounded
// (large wall deadline + fixed branch-and-bound budget), so both
// replays must commit bit-for-bit identical deployments, statistics,
// solver effort and canonical audit bytes. Expected shape: every replay
// consumes the whole trace, survives the failures, finishes with a
// valid committed deployment, the plan cache absorbs repeat arrivals
// (and maintains itself incrementally on additive commits), per-event
// latency stays bounded, and every round query is solved exactly once
// (no commit conflicts, no unwinds).
//
// With --json <path>, every (scenario, mode) run is appended to a
// machine-readable record set (see bench_util.h) — the perf trajectory
// checked in as BENCH_service.json via tools/run_bench.sh.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "common/stats.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "service/planning_service.h"
#include "workload/trace.h"

using namespace sqpr;
using namespace sqpr::bench;

namespace {

struct RunResult {
  double total_ms = 0.0;
  double max_event_ms = 0.0;
  double events_per_s = 0.0;
  ServiceStats stats;
  std::string fingerprint;
  int64_t cache_hits = 0;
  int64_t cache_rebuilds = 0;
  size_t trace_events = 0;
  bool audit_ok = false;
  // Decision audit journal renderings (src/obs/audit.h): the canonical
  // stratum must be byte-identical across replays; the full rendering
  // adds speculative records + wall timings.
  std::string audit_canonical;
  std::string audit_full;
  size_t audit_records = 0;
  size_t audit_canonical_records = 0;
};

RunResult Replay(const TraceConfig& trace_config, bool closed_loop = false,
                 MeasureMode mode = MeasureMode::kEngine,
                 const std::string& metrics_series_path = std::string()) {
  // Fresh scenario per replay: the drift reports install measured rates
  // into the catalog, so state must not leak between runs. Same seed =>
  // identical workload and trace.
  ScenarioConfig config;
  config.queries = 400;
  config.seed = 11;
  Scenario scenario = MakeScenario(config);

  Result<std::vector<Event>> trace = GenerateTrace(
      trace_config, scenario.workload, config.hosts, *scenario.catalog);
  SQPR_CHECK(trace.ok()) << trace.status().ToString();

  ServiceOptions options;
  // Determinism across replays requires a deterministic solver: bound
  // by node budget, not by wall clock.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  options.closed_loop = closed_loop;
  options.telemetry.mode = mode;
  options.telemetry.measure_period = 3;
  options.telemetry.seed = trace_config.seed;
  options.telemetry.ewma_alpha = 0.6;
  options.telemetry.noise = 0.03;
  // Every replay journals its decisions: the cross-run byte-identity
  // shape checks below are the bench-side enforcement of the canonical
  // stratum's replay invariance.
  obs::AuditJournal journal;
  options.audit = &journal;
  PlanningService service(scenario.cluster.get(), scenario.catalog.get(),
                          options);
  for (const Event& e : *trace) {
    SQPR_CHECK_OK(service.Enqueue(e));
  }

  // Periodic metrics exposition for the instrumented replay (CI uploads
  // the series next to the trace + audit artifacts): sample on 1000
  // virtual-ms boundaries, cumulative + per-interval delta per line.
  obs::MetricsRegistry registry;
  ServiceMetricsPublisher publisher(&registry);
  const bool want_series = !metrics_series_path.empty();
  constexpr int64_t kSeriesIntervalMs = 1000;
  std::string series;
  obs::MetricsSnapshot prev;
  int64_t next_sample_ms = kSeriesIntervalMs;
  const auto sample_series = [&](int64_t t_ms) {
    publisher.Publish(service.stats());
    obs::MetricsSnapshot cum = registry.TakeSnapshot();
    const obs::MetricsSnapshot delta = cum.DeltaSince(prev);
    series += "{\"t_ms\":" + std::to_string(t_ms) + ",\"cum\":" +
              cum.ToJson() + ",\"delta\":" + delta.ToJson() + "}\n";
    prev = std::move(cum);
  };
  if (want_series) {
    series += "{\"schema\":\"sqpr-metrics-series-v1\",\"interval_ms\":" +
              std::to_string(kSeriesIntervalMs) + "}\n";
  }

  RunResult result;
  result.trace_events = trace->size();
  Stopwatch watch;
  while (service.HasPendingEvents()) {
    Result<EventOutcome> outcome = service.Step();
    SQPR_CHECK(outcome.ok()) << outcome.status().ToString();
    result.max_event_ms = std::max(result.max_event_ms, outcome->wall_ms);
    if (want_series) {
      while (service.clock().now_ms() >= next_sample_ms) {
        sample_series(next_sample_ms);
        next_sample_ms += kSeriesIntervalMs;
      }
    }
  }
  service.FinishInFlightRound();
  service.FinalizeAudit();
  result.total_ms = watch.ElapsedMillis();
  result.events_per_s = 1000.0 * trace->size() / result.total_ms;
  result.stats = service.stats();
  result.fingerprint = service.deployment().Fingerprint();
  result.cache_hits = service.plan_cache().hits();
  result.cache_rebuilds = service.plan_cache().rebuilds();
  result.audit_ok = service.deployment().Validate().ok();
  result.audit_canonical = journal.ToJsonl(/*canonical=*/true);
  result.audit_full = journal.ToJsonl(/*canonical=*/false);
  result.audit_records = journal.size();
  result.audit_canonical_records = journal.canonical_size();
  if (want_series) {
    // Final sample after the pending round commits: the series always ends
    // with the run's complete totals.
    sample_series(service.clock().now_ms());
    std::FILE* f = std::fopen(metrics_series_path.c_str(), "wb");
    SQPR_CHECK(f != nullptr) << "cannot open " << metrics_series_path;
    std::fwrite(series.data(), 1, series.size(), f);
    std::fclose(f);
  }
  return result;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("\n[%s] %zu events in %.1f ms (%.1f events/s), "
              "max event %.1f ms\n",
              label, r.trace_events, r.total_ms, r.events_per_s,
              r.max_event_ms);
  const ServiceStats& s = r.stats;
  std::printf("  arrivals %lld: admitted %lld (dedup %lld, cache %lld), "
              "rejected %lld\n",
              static_cast<long long>(s.arrivals),
              static_cast<long long>(s.admitted),
              static_cast<long long>(s.dedup_hits),
              static_cast<long long>(s.cache_fast_path),
              static_cast<long long>(s.rejected));
  std::printf("  churn: %lld departures, %lld failures, %lld joins, "
              "%lld drift reports; %lld evictions, %lld/%lld re-admitted\n",
              static_cast<long long>(s.departures),
              static_cast<long long>(s.host_failures),
              static_cast<long long>(s.host_joins),
              static_cast<long long>(s.monitor_reports),
              static_cast<long long>(s.evictions),
              static_cast<long long>(s.replanned_admitted),
              static_cast<long long>(s.replanned_admitted +
                                     s.replanned_rejected));
  std::printf("  rounds: %lld committed; solver effort %lld B&B nodes, "
              "%lld LP pivots (rejections: %lld screened, %lld nodes, "
              "%lld pivots)\n",
              static_cast<long long>(s.replan_rounds),
              static_cast<long long>(s.solver_nodes),
              static_cast<long long>(s.lp_iterations),
              static_cast<long long>(s.screened_rejections),
              static_cast<long long>(s.rejected_solver_nodes),
              static_cast<long long>(s.rejected_lp_iterations));
  if (s.solve_ms.count() > 0) {
    std::printf("  solver wall-time: %zu solves, p50 %.2f ms, p90 %.2f ms, "
                "p99 %.2f ms, max %.2f ms\n",
                s.solve_ms.count(), s.solve_ms.Quantile(0.50),
                s.solve_ms.Quantile(0.90), s.solve_ms.Quantile(0.99),
                s.solve_ms.max());
  }
  std::printf("  reuse index: %lld incremental delta updates, %lld full "
              "rebuilds\n",
              static_cast<long long>(s.cache_delta_updates),
              static_cast<long long>(r.cache_rebuilds));
  if (s.rate_directives + s.measurement_ticks > 0) {
    std::printf("  closed loop: %lld rate directives, %lld measurement "
                "ticks (%lld analytic), %lld auto re-plan rounds; "
                "per-measuring-tick cost avg %.3f ms, max %.3f ms\n",
                static_cast<long long>(s.rate_directives),
                static_cast<long long>(s.measurement_ticks),
                static_cast<long long>(s.analytic_ticks),
                static_cast<long long>(s.auto_replan_rounds),
                s.measure_ms.mean(), s.measure_ms.max());
  }
}

void AddRecord(BenchJsonWriter* json, const char* scenario, const char* mode,
               const RunResult& r) {
  if (json == nullptr) return;
  BenchRecord& rec = json->Add(scenario);
  rec.labels["measure_mode"] = mode;
  const ServiceStats& s = r.stats;
  auto& m = rec.metrics;
  m["wall_ms"] = r.total_ms;
  m["events_per_s"] = r.events_per_s;
  m["max_event_ms"] = r.max_event_ms;
  m["solver_p50_ms"] = s.solve_ms.Quantile(0.50);
  m["solver_p95_ms"] = s.solve_ms.Quantile(0.95);
  m["solver_p99_ms"] = s.solve_ms.Quantile(0.99);
  m["solver_samples"] = static_cast<double>(s.solve_ms.count());
  m["solver_nodes"] = static_cast<double>(s.solver_nodes);
  m["lp_iterations"] = static_cast<double>(s.lp_iterations);
  m["lp_factorizations"] = static_cast<double>(s.lp_factorizations);
  m["lp_dual_solves"] = static_cast<double>(s.lp_dual_solves);
  m["lp_slack_start_iterations"] =
      static_cast<double>(s.lp_slack_start_iterations);
  m["rejected_candidates"] = static_cast<double>(s.rejected_candidates);
  m["screened_rejections"] = static_cast<double>(s.screened_rejections);
  m["rejected_solver_nodes"] = static_cast<double>(s.rejected_solver_nodes);
  m["rejected_lp_iterations"] =
      static_cast<double>(s.rejected_lp_iterations);
  m["admitted"] = static_cast<double>(s.admitted);
  m["rejected"] = static_cast<double>(s.rejected);
  m["evictions"] = static_cast<double>(s.evictions);
  m["replan_rounds"] = static_cast<double>(s.replan_rounds);
  m["cache_delta_updates"] = static_cast<double>(s.cache_delta_updates);
  m["cache_rebuilds"] = static_cast<double>(r.cache_rebuilds);
  m["measurement_ticks"] = static_cast<double>(s.measurement_ticks);
  m["analytic_ticks"] = static_cast<double>(s.analytic_ticks);
  m["auto_replan_rounds"] = static_cast<double>(s.auto_replan_rounds);
  m["measure_ms_avg"] = s.measure_ms.mean();
  m["measure_ms_max"] = s.measure_ms.max();
  m["measure_ms_p99"] = s.measure_ms.Quantile(0.99);
  m["audit_records"] = static_cast<double>(r.audit_records);
  m["audit_canonical_records"] =
      static_cast<double>(r.audit_canonical_records);
}

bool DeterminismChecks(const char* scenario, const RunResult& first,
                       const RunResult& again) {
  bool ok = true;
  std::printf("\n-- %s: replay invariance and the round path --\n", scenario);
  ok &= ShapeCheck(first.stats.events ==
                           static_cast<int64_t>(first.trace_events) &&
                       again.stats.events ==
                           static_cast<int64_t>(again.trace_events),
                   "every trace event consumed in both replays");
  ok &= ShapeCheck(first.audit_ok && again.audit_ok,
                   "final committed deployments validate");
  ok &= ShapeCheck(first.fingerprint == again.fingerprint,
                   "replays commit identical deployments");
  ok &= ShapeCheck(first.audit_canonical_records > 0 &&
                       first.audit_canonical == again.audit_canonical,
                   "canonical audit journal byte-identical across replays");
  const ServiceStats& a = first.stats;
  const ServiceStats& b = again.stats;
  ok &= ShapeCheck(
      a.admitted == b.admitted && a.rejected == b.rejected &&
          a.replanned_admitted == b.replanned_admitted &&
          a.measurement_ticks == b.measurement_ticks &&
          a.auto_replan_rounds == b.auto_replan_rounds &&
          a.solve_ms.count() == b.solve_ms.count() &&
          a.solver_nodes == b.solver_nodes &&
          a.lp_iterations == b.lp_iterations &&
          a.lp_factorizations == b.lp_factorizations &&
          a.lp_dual_solves == b.lp_dual_solves &&
          a.lp_slack_start_iterations == b.lp_slack_start_iterations &&
          a.rejected_candidates == b.rejected_candidates &&
          a.screened_rejections == b.screened_rejections &&
          a.rejected_solver_nodes == b.rejected_solver_nodes &&
          a.rejected_lp_iterations == b.rejected_lp_iterations,
      "replays agree on admission statistics and solver effort");
  ok &= ShapeCheck(a.commit_conflicts == 0 && a.round_unwinds == 0 &&
                       a.barrier_ms.count() == 0,
                   "round queries solved once, at their commit point");
  ok &= ShapeCheck(
      first.max_event_ms <= std::max(1000.0, first.total_ms / 4) &&
          again.max_event_ms <= std::max(1000.0, again.total_ms / 4),
      "per-event latency bounded (no event monopolised loop)");
  return ok;
}

// Checkpoint overhead (docs/ARCHITECTURE.md §9): the cost of making
// the service crash-durable, measured on the state the drift-heavy
// trace leaves behind. Three phases are timed separately because they
// bound different things: ExportCheckpoint bounds the event-loop stall
// a periodic checkpoint inserts (the first call additionally pays the
// barrier + accounting refresh, so it is reported on its
// own), WriteFileAtomic bounds the filesystem cost of the
// write-fsync-rename protocol, and RestoreCheckpoint bounds recovery
// time after a crash. The round-trip check mirrors the durability
// suite's restore property: exporting from the restored service must
// reproduce, byte for byte, what the original service would have
// exported next (each export bumps the deployment version by one, so
// the reference is the original's *subsequent* export, not the
// restored document itself).
bool RunCheckpointOverhead(BenchJsonWriter* json,
                           const TraceConfig& trace_config) {
  ScenarioConfig config;
  config.queries = 400;
  config.seed = 11;
  Scenario scenario = MakeScenario(config);
  Result<std::vector<Event>> trace = GenerateTrace(
      trace_config, scenario.workload, config.hosts, *scenario.catalog);
  SQPR_CHECK(trace.ok()) << trace.status().ToString();

  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  PlanningService service(scenario.cluster.get(), scenario.catalog.get(),
                          options);
  for (const Event& e : *trace) {
    SQPR_CHECK_OK(service.Enqueue(e));
  }
  SQPR_CHECK_OK(service.RunUntilIdle());

  // Each phase runs kReps times and reports its median: single
  // sub-millisecond timings swing far beyond the host's noise band.
  constexpr int kReps = 7;
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  Stopwatch sw;
  Result<std::string> doc = service.ExportCheckpoint();
  SQPR_CHECK(doc.ok()) << doc.status().ToString();
  const double export_first_ms = sw.ElapsedMillis();
  std::vector<double> export_ms, write_ms, restore_ms;
  for (int i = 0; i < kReps; ++i) {
    sw.Reset();
    doc = service.ExportCheckpoint();
    export_ms.push_back(sw.ElapsedMillis());
    SQPR_CHECK(doc.ok()) << doc.status().ToString();
  }

  const std::string path =
      "/tmp/sqpr_bench_ckpt_" + std::to_string(::getpid()) + ".json";
  for (int i = 0; i < kReps; ++i) {
    sw.Reset();
    const Status written = WriteFileAtomic(path, *doc);
    write_ms.push_back(sw.ElapsedMillis());
    SQPR_CHECK(written.ok()) << written.ToString();
  }
  Result<std::string> read_back = ReadFileToString(path);
  SQPR_CHECK(read_back.ok()) << read_back.status().ToString();
  std::remove(path.c_str());

  // Reference for the round-trip check: what the original service
  // exports next (one version bump past `doc`).
  Result<std::string> reference = service.ExportCheckpoint();
  SQPR_CHECK(reference.ok()) << reference.status().ToString();

  // Every restore needs a fresh service; the last one is round-tripped.
  std::unique_ptr<Scenario> fresh;
  std::unique_ptr<PlanningService> restored;
  for (int i = 0; i < kReps; ++i) {
    restored.reset();  // before the scenario it points into
    fresh = std::make_unique<Scenario>(MakeScenario(config));
    restored = std::make_unique<PlanningService>(
        fresh->cluster.get(), fresh->catalog.get(), options);
    sw.Reset();
    const Status restore = restored->RestoreCheckpoint(*doc);
    restore_ms.push_back(sw.ElapsedMillis());
    SQPR_CHECK(restore.ok()) << restore.ToString();
  }
  Result<std::string> round_trip = restored->ExportCheckpoint();
  SQPR_CHECK(round_trip.ok()) << round_trip.status().ToString();

  const double export_ms_median = median(export_ms);
  const double write_ms_median = median(write_ms);
  const double restore_ms_median = median(restore_ms);
  std::printf("  checkpoint: %zu bytes; export first %.2f ms (pays the "
              "accounting refresh), steady median %.2f ms; atomic write "
              "median %.2f ms; restore median %.2f ms (%d reps each)\n",
              doc->size(), export_first_ms, export_ms_median,
              write_ms_median, restore_ms_median, kReps);

  bool ok = true;
  ok &= ShapeCheck(doc->size() > 0 && *read_back == *doc,
                   "atomic write-rename round-trips the checkpoint bytes");
  ok &= ShapeCheck(*round_trip == *reference,
                   "restored service exports byte-for-byte what the "
                   "original would export next");
  ok &= ShapeCheck(restored->stats().events == service.stats().events &&
                       restored->stats().admitted == service.stats().admitted,
                   "restore reinstates the serialized counters");

  if (json != nullptr) {
    BenchRecord& rec = json->Add("checkpoint-overhead");
    rec.labels["measure_mode"] = "none";
    auto& m = rec.metrics;
    m["checkpoint_bytes"] = static_cast<double>(doc->size());
    m["export_first_ms"] = export_first_ms;
    m["export_ms_median"] = export_ms_median;
    m["write_ms_median"] = write_ms_median;
    m["restore_ms_median"] = restore_ms_median;
    m["events"] = static_cast<double>(service.stats().events);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_out;
  std::string audit_out;
  std::string metrics_series_out;
  if (!ParseBenchArgs(argc, argv, &json_path, &trace_out, &audit_out,
                      &metrics_series_out)) {
    return 2;
  }

  PrintHeader("Service churn",
              "event-driven admission / drift re-planning / closed-loop "
              "measurement, each trace replayed twice",
              11);
  BenchJsonWriter json("service_churn", 11);
  BenchJsonWriter* jout = json_path.empty() ? nullptr : &json;

  // ---- Scenario 1: drift-heavy (re-planning rounds stay full). ----
  TraceConfig drifty;
  drifty.num_events = 300;
  drifty.seed = 11;
  drifty.min_failures = 2;
  drifty.min_drift_reports = 8;
  drifty.drift_weight = 0.20;

  std::printf("\n==== scenario: drift-heavy ====\n");
  // The first replay is the flight-recorder, audit-journal and
  // metrics-series capture target, so the three CI artifacts all
  // explain one replay and join on its timeline. Tracing reads clocks
  // and writes thread-local rings only — the determinism checks below
  // still compare this replay against the untraced repeat.
  if (!trace_out.empty()) {
    // 8K spans/thread keeps the committed artifact a few hundred KB
    // gzipped while retaining the most recent rounds end to end (the
    // full-capacity default would be ~10x larger for the same story).
    obs::TraceRecorder::Options trace_options;
    trace_options.per_thread_capacity = 8192;
    obs::TraceRecorder::Get().Enable(trace_options);
    obs::TraceRecorder::SetCurrentThreadName("loop");
  }
  const RunResult d = Replay(drifty, /*closed_loop=*/false,
                             MeasureMode::kEngine, metrics_series_out);
  if (!trace_out.empty()) {
    obs::TraceRecorder::Get().Disable();
    const Status written =
        obs::TraceRecorder::Get().WriteChromeTrace(trace_out);
    SQPR_CHECK(written.ok()) << written.ToString();
    std::printf("\nwrote flight-recorder trace (drift-heavy): %s\n",
                trace_out.c_str());
  }
  if (!audit_out.empty()) {
    std::FILE* f = std::fopen(audit_out.c_str(), "wb");
    SQPR_CHECK(f != nullptr) << "cannot open " << audit_out;
    std::fwrite(d.audit_full.data(), 1, d.audit_full.size(), f);
    std::fclose(f);
    std::printf("\nwrote audit journal (drift-heavy): %s "
                "(%zu records, %zu canonical)\n",
                audit_out.c_str(), d.audit_records,
                d.audit_canonical_records);
  }
  if (!metrics_series_out.empty()) {
    std::printf("wrote metrics series (drift-heavy): %s\n",
                metrics_series_out.c_str());
  }
  PrintRun("first", d);
  const RunResult d2 = Replay(drifty);
  PrintRun("repeat", d2);
  AddRecord(jout, "drift-heavy", "none", d);

  // ---- Scenario 2: arrival-heavy (cache-miss arrivals, rounds kept
  // live by a few drift reports). ----
  TraceConfig arrivally;
  arrivally.num_events = 300;
  arrivally.seed = 23;
  arrivally.arrival_weight = 1.0;
  arrivally.departure_weight = 0.30;
  arrivally.drift_weight = 0.10;  // enough evictions to keep rounds live
  arrivally.failure_weight = 0.02;
  arrivally.min_failures = 1;
  arrivally.min_drift_reports = 6;

  std::printf("\n==== scenario: arrival-heavy ====\n");
  const RunResult a = Replay(arrivally);
  PrintRun("first", a);
  const RunResult a2 = Replay(arrivally);
  PrintRun("repeat", a2);
  AddRecord(jout, "arrival-heavy", "none", a);

  // ---- Scenario 3: closed-loop (§IV-C self-measurement: the trace
  // scripts ground-truth rate trajectories and *no* monitor reports;
  // drift detection and re-planning fire from the service's own
  // periodic measurements). ----
  TraceConfig closed;
  closed.num_events = 220;
  closed.seed = 31;
  closed.closed_loop = true;
  closed.tick_weight = 0.55;       // measurements ride ticks
  closed.drift_weight = 0.18;      // rate directives
  closed.min_drift_reports = 8;
  closed.min_failures = 1;

  std::printf("\n==== scenario: closed-loop (engine measurements) ====\n");
  const RunResult c = Replay(closed, /*closed_loop=*/true);
  PrintRun("first", c);
  const RunResult c2 = Replay(closed, /*closed_loop=*/true);
  PrintRun("repeat", c2);
  AddRecord(jout, "closed-loop", "engine", c);

  // ---- Scenario 3b: the same closed-loop trace under analytic
  // measurements — per-stream rates and per-host CPU derived from the
  // committed ledgers scaled by truth/estimate ratios, no ClusterSim
  // run. ----
  std::printf("\n==== scenario: closed-loop (analytic measurements) ====\n");
  const RunResult n = Replay(closed, /*closed_loop=*/true,
                             MeasureMode::kAnalytic);
  PrintRun("first", n);
  const RunResult n2 = Replay(closed, /*closed_loop=*/true,
                              MeasureMode::kAnalytic);
  PrintRun("repeat", n2);
  AddRecord(jout, "closed-loop", "analytic", n);
  std::printf("\nper-measuring-tick cost: engine avg %.3f ms vs analytic "
              "avg %.4f ms (%.1fx)\n",
              c.stats.measure_ms.mean(), n.stats.measure_ms.mean(),
              n.stats.measure_ms.mean() > 0
                  ? c.stats.measure_ms.mean() / n.stats.measure_ms.mean()
                  : 0.0);

  // ---- Scenario 4: checkpoint overhead (docs/ARCHITECTURE.md §9) —
  // the durability tax, measured on the drift-heavy trace's final
  // state: export (periodic event-loop stall), atomic write (fsync +
  // rename), restore (recovery time), with the restore round-trip
  // byte-checked against the original service. ----
  std::printf("\n==== scenario: checkpoint-overhead ====\n");
  const bool checkpoint_ok = RunCheckpointOverhead(jout, drifty);

  bool ok = checkpoint_ok;
  ok &= DeterminismChecks("drift-heavy", d, d2);
  ok &= DeterminismChecks("arrival-heavy", a, a2);
  ok &= DeterminismChecks("closed-loop[engine]", c, c2);
  ok &= DeterminismChecks("closed-loop[analytic]", n, n2);

  std::printf("\n-- scenario-specific shape --\n");
  ok &= ShapeCheck(d.stats.host_failures >= 2 &&
                       d.stats.monitor_reports >= 8,
                   "drift-heavy trace exercised failures and drift");
  ok &= ShapeCheck(d.stats.admitted > 0, "service admitted queries");
  ok &= ShapeCheck(d.stats.replan_rounds > 0 && d.stats.solver_nodes > 0 &&
                       d.stats.lp_iterations > 0,
                   "drift-heavy trace ran rounds; solver effort counted");
  ok &= ShapeCheck(d.cache_hits > 0 && a.cache_hits > 0,
                   "plan cache absorbed repeat/sub-query arrivals");
  ok &= ShapeCheck(c.stats.monitor_reports == 0 &&
                       c.stats.rate_directives >= 8,
                   "closed-loop trace scripts trajectories, zero monitor "
                   "reports");
  ok &= ShapeCheck(c.stats.measurement_ticks > 0,
                   "closed loop performed periodic self-measurements");
  ok &= ShapeCheck(c.stats.auto_replan_rounds > 0,
                   "self-measured drift triggered re-planning with no "
                   "scripted measurement anywhere in the trace");
  ok &= ShapeCheck(n.stats.analytic_ticks == n.stats.measurement_ticks &&
                       n.stats.measurement_ticks ==
                           c.stats.measurement_ticks &&
                       c.stats.analytic_ticks == 0,
                   "analytic replay measured on the same ticks, engine "
                   "replay never took the analytic path");
  ok &= ShapeCheck(n.stats.auto_replan_rounds > 0,
                   "analytic measurements detected drift and triggered "
                   "re-planning too");
  // Per-tick means come from ~20 samples per replay; a scheduler
  // descheduling spike on one tick could inflate a single replay's
  // mean. Taking the minimum mean across the two replays of each mode
  // keeps the >= 5x gate robust on a loaded host — the true margin is
  // ~20x.
  const double engine_tick_ms =
      std::min(c.stats.measure_ms.mean(), c2.stats.measure_ms.mean());
  const double analytic_tick_ms =
      std::min(n.stats.measure_ms.mean(), n2.stats.measure_ms.mean());
  ok &= ShapeCheck(
      analytic_tick_ms > 0 && engine_tick_ms >= 5.0 * analytic_tick_ms,
      "analytic mode cuts per-measuring-tick cost >= 5x vs engine mode");
  ok &= ShapeCheck(d.cache_rebuilds <= 1 && a.cache_rebuilds <= 1 &&
                       c.cache_rebuilds <= 1 && n.cache_rebuilds <= 1,
                   "0 full cache rebuilds after the first build");

  if (jout != nullptr && !json.WriteFile(json_path, ok ? 0 : 1)) {
    return 1;
  }
  return ok ? 0 : 1;
}
