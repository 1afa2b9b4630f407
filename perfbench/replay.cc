// perfbench replay program: one replay of one benchmark scenario through the
// public PlanningService API, in a process of its own.
//
//   perfbench_replay --seed N [--trace 1] [scenario flags...]
//
// A replay has two phases:
//  * set-up (timed as a whole and in two parts): generate the scenario
//    and its trace, construct the service, and replay the trace's
//    warm-up prefix, which leaves a standing query population behind;
//  * the timed phase: a fixed trace of events handed to the service one
//    at a time (closed loop, one caller: Enqueue, then Step, then the
//    next event), closed by FinishInFlightRound.
//
// The solver is bounded by B&B nodes (wall deadline far above any
// solve), so the committed deployment and every decision counter are a
// function of the flags alone; only times vary between replays. With
// --trace 1 the flight recorder runs during the timed phase and the
// program folds every span into per-name count, inclusive time and self
// time. The benchmark's own spans (bench/...) wrap each public call.
//
// Output: one JSON object on stdout; run.py aggregates and checks it.
// Exit code 0 even when a check fails — the checks are reported in the
// JSON — except for unusable flags (2) or a set-up error (1).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/trace.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

using namespace sqpr;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Every scenario runs on three hosts of the bench_service_churn host
// shape (bench/bench_util.h ScenarioConfig) and requests two-way joins:
// at this size no node-bounded solve ends in the greedy fallback.
constexpr int kHosts = 3;
constexpr double kHostCpu = 0.8;
constexpr double kNicMbps = 70.0;
constexpr double kLinkMbps = 140.0;
constexpr int kArity = 2;
// Spans retained per thread while tracing: enough that no replay of the
// benchmark's workloads drops one (run.py checks the drop count).
constexpr size_t kTraceCapacity = size_t{1} << 19;

// ---- Flags. ----

struct Flags {
  uint64_t seed = 1;
  bool trace = false;
  // Query pool.
  int base_streams = 48;
  double zipf = 1.0;
  // Trace.
  int warmup_events = 100;
  int timed_events = 100;
  double departure_weight = 0.35;
  double failure_weight = 0.0;
  double join_weight = 0.0;
  double drift_weight = 0.0;
  double tick_weight = 0.0;
  int min_failures = 0;
  int min_drift_reports = 0;
  // Service.
  int workers = 0;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
      return false;
    }
    const std::string v = argv[++i];
    const double d = std::atof(v.c_str());
    const int n = std::atoi(v.c_str());
    if (key == "--seed") f->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (key == "--trace") f->trace = n != 0;
    else if (key == "--base-streams") f->base_streams = n;
    else if (key == "--zipf") f->zipf = d;
    else if (key == "--warmup-events") f->warmup_events = n;
    else if (key == "--timed-events") f->timed_events = n;
    else if (key == "--departure-weight") f->departure_weight = d;
    else if (key == "--failure-weight") f->failure_weight = d;
    else if (key == "--join-weight") f->join_weight = d;
    else if (key == "--drift-weight") f->drift_weight = d;
    else if (key == "--tick-weight") f->tick_weight = d;
    else if (key == "--min-failures") f->min_failures = n;
    else if (key == "--min-drift-reports") f->min_drift_reports = n;
    else if (key == "--workers") f->workers = n;
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (f->base_streams < 2 || f->warmup_events < 1 || f->timed_events < 1 ||
      f->workers < 0) {
    std::fprintf(stderr, "flag out of range\n");
    return false;
  }
  return true;
}

// ---- Span folding (traced replays). ----

struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;     // inclusive, all threads
  double self_ms = 0.0;      // exclusive, all threads
  double loop_self_ms = 0.0; // exclusive, loop thread only
  uint64_t arg0_sum = 0;
};

// Folds drained spans into per-name totals. Spans of one thread nest
// (RAII scopes), so a span's direct children never overlap each other
// and its self time is its duration minus theirs.
std::map<std::string, SpanTotals> FoldSpans(std::vector<obs::SpanRecord> spans,
                                            uint32_t loop_tid) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parent before its children
            });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    while (!stack.empty()) {
      const obs::SpanRecord& top = spans[stack.back()];
      if (top.tid == s.tid && s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += s.dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    SpanTotals& t = out[obs::TraceRecorder::Get().span_meta(s.name_id).name];
    const double self_ms =
        static_cast<double>(s.dur_ns - std::min(child_ns[i], s.dur_ns)) / 1e6;
    ++t.count;
    t.total_ms += static_cast<double>(s.dur_ns) / 1e6;
    t.self_ms += self_ms;
    if (s.tid == loop_tid) t.loop_self_ms += self_ms;
    t.arg0_sum += s.args[0];
  }
  return out;
}

// ---- Output helpers. ----

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string JsonDoubles(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

// Busy-time buckets of the timed phase: arrivals, departures, and
// everything that disrupts the deployment (host failures and joins,
// monitor reports, ticks).
constexpr const char* kStepKinds[3] = {"arrival", "departure", "disrupt"};

int StepKindIndex(EventKind kind) {
  if (kind == EventKind::kQueryArrival) return 0;
  if (kind == EventKind::kQueryDeparture) return 1;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  // ---- Set-up: scenario, traces, service, warm-up. ----
  const Clock::time_point setup_start = Clock::now();
  auto catalog = std::make_unique<Catalog>(CostModel{});
  auto cluster = std::make_unique<Cluster>(
      kHosts, HostSpec{kHostCpu, kNicMbps, kNicMbps, ""}, kLinkMbps);
  WorkloadConfig wc;
  wc.num_base_streams = flags.base_streams;
  wc.zipf_s = flags.zipf;
  wc.arities = {kArity};
  // One query per arrival slot, so no trace wraps around its pool.
  wc.num_queries = flags.warmup_events + flags.timed_events;
  wc.seed = flags.seed;
  Result<Workload> workload = GenerateWorkload(wc, kHosts, catalog.get());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  // One trace of the workload's event mix; its first warmup_events
  // events are the warm-up, the rest the timed phase. Arrivals outnumber
  // departures, so the warm-up leaves a standing population, and the
  // trace's departures may retire warm-up queries as well as timed ones.
  TraceConfig trace_config;
  trace_config.num_events = flags.warmup_events + flags.timed_events;
  trace_config.departure_weight = flags.departure_weight;
  trace_config.failure_weight = flags.failure_weight;
  trace_config.join_weight = flags.join_weight;
  trace_config.drift_weight = flags.drift_weight;
  trace_config.tick_weight = flags.tick_weight;
  trace_config.min_failures = flags.min_failures;
  trace_config.min_drift_reports = flags.min_drift_reports;
  trace_config.seed = flags.seed;
  Result<std::vector<Event>> trace =
      GenerateTrace(trace_config, *workload, kHosts, *catalog);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  const std::vector<Event> warm_trace(trace->begin(),
                                      trace->begin() + flags.warmup_events);
  const std::vector<Event> timed_trace(trace->begin() + flags.warmup_events,
                                       trace->end());
  const double generate_ms = MsSince(setup_start);

  ServiceOptions options;
  // Node-bounded solves: identical work on every replay.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  options.replan.workers = flags.workers;
  PlanningService service(cluster.get(), catalog.get(), options);

  const Clock::time_point warm_start = Clock::now();
  int64_t step_errors = 0;
  for (const Event& e : warm_trace) {
    const Status queued = service.Enqueue(e);
    Result<EventOutcome> outcome =
        queued.ok() ? service.Step() : Result<EventOutcome>(queued);
    if (!outcome.ok()) {
      std::fprintf(stderr, "warm-up step: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
  }
  service.FinishInFlightRound();
  const double warmup_ms = MsSince(warm_start);
  const double setup_ms = MsSince(setup_start);

  const ServiceStats before = service.stats();
  const int64_t rebuilds_before = service.plan_cache().rebuilds();

  // ---- Timed phase. ----
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  static const uint32_t kTimedSpan = obs::TraceRecorder::RegisterSpan("bench/timed");
  static const uint32_t kFinishSpan =
      obs::TraceRecorder::RegisterSpan("bench/finish");
  uint32_t step_span_ids[3];
  for (int k = 0; k < 3; ++k) {
    step_span_ids[k] = obs::TraceRecorder::RegisterSpan(
        (std::string("bench/step.") + kStepKinds[k]).c_str());
  }
  if (flags.trace) {
    obs::TraceRecorder::SetCurrentThreadName("loop");
    obs::TraceRecorder::Options trace_options;
    trace_options.per_thread_capacity = kTraceCapacity;
    recorder.Enable(trace_options);
  }

  std::vector<double> arrival_ms;
  double step_ms[3] = {0.0, 0.0, 0.0};
  int64_t arrivals_admitted = 0;
  int64_t consumed = 0;
  const Clock::time_point timed_start = Clock::now();
  {
    obs::SpanScope timed_span(kTimedSpan);
    for (const Event& e : timed_trace) {
      const int kind = StepKindIndex(e.kind);
      const Status queued = service.Enqueue(e);
      const Clock::time_point step_start = Clock::now();
      Result<EventOutcome> outcome = queued;
      if (queued.ok()) {
        obs::SpanScope step_span(step_span_ids[kind]);
        outcome = service.Step();
      }
      const double ms = MsSince(step_start);
      if (!outcome.ok()) {
        ++step_errors;
        std::fprintf(stderr, "step error: %s\n",
                     outcome.status().ToString().c_str());
        continue;
      }
      ++consumed;
      step_ms[kind] += ms;
      if (e.kind == EventKind::kQueryArrival) {
        arrival_ms.push_back(ms);
        if (outcome->admitted) ++arrivals_admitted;
      }
    }
    obs::SpanScope finish_span(kFinishSpan);
    service.FinishInFlightRound();
  }
  const double timed_ms = MsSince(timed_start);

  std::vector<obs::SpanRecord> spans;
  std::vector<obs::ThreadTraceStats> thread_stats;
  if (flags.trace) {
    spans = recorder.Drain(&thread_stats);
    recorder.Disable();
  }

  // ---- Checks and counters. ----
  const ServiceStats& after = service.stats();
  const Deployment& deployment = service.deployment();
  const Status valid = deployment.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "final deployment invalid: %s\n",
                 valid.ToString().c_str());
  }
  const std::string fingerprint = deployment.Fingerprint();
  const size_t admitted_queries = service.admitted_queries().size();

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  const int64_t fastpath = (after.dedup_hits - before.dedup_hits) +
                           (after.cache_fast_path - before.cache_fast_path);
  std::map<std::string, double> counters = {
      {"arrivals", static_cast<double>(after.arrivals - before.arrivals)},
      {"arrivals_admitted", static_cast<double>(arrivals_admitted)},
      {"admitted", static_cast<double>(after.admitted - before.admitted)},
      {"rejected", static_cast<double>(after.rejected - before.rejected)},
      {"fastpath_hits", static_cast<double>(fastpath)},
      {"host_failures",
       static_cast<double>(after.host_failures - before.host_failures)},
      {"evictions", static_cast<double>(after.evictions - before.evictions)},
      {"solves", static_cast<double>(after.solve_ms.count() - before.solve_ms.count())},
      {"commit_conflicts",
       static_cast<double>(after.commit_conflicts - before.commit_conflicts)},
      {"round_unwinds", static_cast<double>(after.round_unwinds - before.round_unwinds)},
      {"replan_rounds", static_cast<double>(after.replan_rounds - before.replan_rounds)},
      {"snapshot_bytes",
       static_cast<double>(after.snapshot_bytes_copied - before.snapshot_bytes_copied)},
      {"cache_delta_updates",
       static_cast<double>(after.cache_delta_updates - before.cache_delta_updates)},
      {"cache_rebuilds",
       static_cast<double>(service.plan_cache().rebuilds() - rebuilds_before)},
      {"model_patches", static_cast<double>(after.model_patches - before.model_patches)},
      {"model_rebuilds",
       static_cast<double>(after.model_rebuilds - before.model_rebuilds)},
      {"warm_starts", static_cast<double>(after.warm_starts - before.warm_starts)},
      {"basis_discards",
       static_cast<double>(after.basis_discards - before.basis_discards)},
      {"deadline_breaches", static_cast<double>(after.solver_deadline_breaches -
                                                before.solver_deadline_breaches)},
      {"heuristic_fallbacks",
       static_cast<double>(after.heuristic_fallbacks - before.heuristic_fallbacks)},
      {"catalog_exhausted",
       static_cast<double>(after.catalog_exhausted - before.catalog_exhausted)},
      {"admitted_queries", static_cast<double>(admitted_queries)},
      {"catalog_streams", static_cast<double>(catalog->num_streams())},
      {"deployment_bytes", static_cast<double>(deployment.ApproxSizeBytes())},
  };
  const double barrier_ms = after.barrier_ms.sum() - before.barrier_ms.sum();

  // ---- Report. ----
  std::string out = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"seed\":%llu,\"timed_events\":%zu,\"consumed\":%lld,"
                "\"pending_after\":%s,\"step_errors\":%lld,\"valid\":%s,",
                static_cast<unsigned long long>(flags.seed), timed_trace.size(),
                static_cast<long long>(consumed),
                service.HasPendingEvents() ? "true" : "false",
                static_cast<long long>(step_errors), valid.ok() ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"fingerprint\":\"%016llx\",\"net_mbps\":%.9g,"
                "\"setup_ms\":%.6f,\"generate_ms\":%.6f,\"warmup_ms\":%.6f,"
                "\"timed_ms\":%.6f,\"barrier_ms\":%.6f,\"peak_rss_kb\":%ld,",
                static_cast<unsigned long long>(Fnv1a(fingerprint)),
                deployment.TotalNetworkUsed(), setup_ms, generate_ms, warmup_ms,
                timed_ms, barrier_ms, usage.ru_maxrss);
  out += buf;
  out += "\"arrival_ms\":" + JsonDoubles(arrival_ms) + ",\"step_ms\":{";
  for (int k = 0; k < 3; ++k) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6f", k ? "," : "",
                  kStepKinds[k], step_ms[k]);
    out += buf;
  }
  out += "},\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                  name.c_str(), value);
    out += buf;
    first = false;
  }
  out += "}";
  if (flags.trace) {
    uint64_t dropped = 0;
    for (const obs::ThreadTraceStats& t : thread_stats) dropped += t.dropped;
    uint32_t loop_tid = 0;
    for (const obs::SpanRecord& s : spans) {
      if (s.name_id == kTimedSpan) loop_tid = s.tid;
    }
    std::snprintf(buf, sizeof(buf), ",\"dropped_spans\":%llu,\"spans\":%zu,\"layers\":{",
                  static_cast<unsigned long long>(dropped), spans.size());
    out += buf;
    first = true;
    for (const auto& [name, t] : FoldSpans(std::move(spans), loop_tid)) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"count\":%lld,\"total_ms\":%.6f,\"self_ms\":%.6f,"
                    "\"loop_self_ms\":%.6f,\"arg0_sum\":%llu}",
                    first ? "" : ",", name.c_str(), static_cast<long long>(t.count),
                    t.total_ms, t.self_ms, t.loop_self_ms,
                    static_cast<unsigned long long>(t.arg0_sum));
      out += buf;
      first = false;
    }
    out += "}";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
