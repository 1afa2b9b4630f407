// Continuous planning service runner: stands up a synthetic DSPS
// (cluster + Zipf join workload, the §V setup), generates or loads a
// timestamped event trace — query arrivals/departures, host
// failures/rejoins, monitor drift reports, ticks — and replays it
// through the PlanningService, reporting per-event and per-stage
// latency, admission statistics, plan-cache effectiveness and the final
// committed deployment audit (see docs/ARCHITECTURE.md for the
// round model and determinism contract).
//
// Examples:
//   sqpr_service --hosts 6 --events 200 --seed 7
//   sqpr_service --events 500 --save-trace /tmp/churn.trace --verbose
//   sqpr_service --trace /tmp/churn.trace

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "common/fault.h"
#include "common/file.h"
#include "common/stats.h"
#include "model/catalog.h"
#include "service/checkpoint.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "model/cluster.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

// Flag value bounds (see cli_flags.h): a millisecond budget of about
// eleven days, a node budget and a trace ring the process can hold.
constexpr long long kMaxMs = 1'000'000'000;
constexpr long long kMaxNodes = 1'000'000'000;
constexpr long long kMaxTraceCapacity = 1 << 22;

struct Args {
  int hosts = 6;
  double cpu = 0.8;
  double nic_mbps = 70.0;
  double link_mbps = 140.0;
  int streams = 48;
  double rate_mbps = 10.0;
  int queries = 400;  // arrival pool (reused cyclically by the trace)
  std::vector<int> arities = {2, 3};
  double zipf = 1.0;
  uint64_t seed = 1;
  int events = 200;
  int64_t timeout_ms = 150;
  int64_t max_nodes = 0;  // 0 = keep the planner default
  int replan_round = 8;
  bool closed_loop = false;
  sqpr::MeasureMode measure_mode = sqpr::MeasureMode::kEngine;
  int measure_period = 4;
  uint64_t rate_seed = 0;       // 0 = follow --seed
  bool rate_seed_set = false;
  std::string trace_path;       // load instead of generating
  std::string save_trace_path;  // write the generated trace
  std::string trace_out_path;   // flight-recorder Chrome trace JSON
  size_t trace_capacity = 1 << 15;
  std::string metrics_out_path; // metrics exposition file
  int64_t metrics_interval_ms = 0;  // 0 = one snapshot at exit
  std::string metrics_format = "json";  // json | openmetrics
  std::string stats_json_path;  // final ServiceStats JSON
  std::string audit_out_path;   // decision audit journal JSONL
  bool audit_canonical = false; // strip speculative/wall strata
  double stall_ms = 0.0;        // watchdog: event-loop stall threshold
  double budget_admit_ms = 0.0;  // watchdog: per-stage budgets
  double budget_solve_ms = 0.0;
  double budget_commit_ms = 0.0;
  double budget_measure_ms = 0.0;
  std::string checkpoint_out_path;  // crash-durable service checkpoint
  int64_t checkpoint_every = 0;     // events between checkpoints (0 = final only)
  std::string restore_path;         // resume from a checkpoint
  bool verbose = false;
};

void Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: sqpr_service [flags]\n"
      "\n"
      "Replays a service event trace (generated or loaded) through the\n"
      "continuous SQPR planning service and reports latency, admission,\n"
      "re-planning, plan-cache and incremental-solve statistics (model\n"
      "patches vs rebuilds of the cached MILP skeleton).\n"
      "\n"
      "Numeric flag values are parsed strictly: a malformed, non-finite\n"
      "or out-of-range value is reported as \"FLAG: VALUE\" and exits 2.\n"
      "\n"
      "Scenario flags (synthetic cluster + workload):\n"
      "  --hosts N        cluster size (default 6, 2 to 1024)\n"
      "  --cpu F          per-host CPU budget in CPU units (default 0.8)\n"
      "  --nic MBPS       per-host NIC in/out budget (default 70)\n"
      "  --link MBPS      per-link budget (default 140)\n"
      "  --streams N      number of base streams (default 48)\n"
      "  --rate MBPS      base-stream rate estimate (default 10)\n"
      "  --queries N      arrival pool size, reused cyclically (default 400)\n"
      "  --arities K,K..  join arities sampled for queries (default 2,3)\n"
      "  --zipf S         Zipf skew of leaf popularity (default 1.0)\n"
      "  --seed N         RNG seed for workload AND trace (default 1)\n"
      "\n"
      "Trace flags:\n"
      "  --events N       events to generate (default 200)\n"
      "  --trace FILE     load a saved trace instead of generating one\n"
      "  --save-trace FILE\n"
      "                   write the generated trace to FILE\n"
      "\n"
      "Trace file format (one event per line; the same event/trace\n"
      "schema as docs/ARCHITECTURE.md §2; '#' comments and blank lines\n"
      "are ignored; times are virtual milliseconds, strictly ordered by\n"
      "(time, line order)):\n"
      "  <t_ms> arrival <stream>        admit canonical query stream\n"
      "  <t_ms> departure <stream>      remove + GC unshared support\n"
      "  <t_ms> host-failure <host>     zero budgets, evict fallout\n"
      "  <t_ms> host-join <host>        restore budgets, retry rejected\n"
      "  <t_ms> monitor <n> {<stream> <mbps>}*n [cpu <m> <u0> ... <um-1>]\n"
      "                                 measured base rates (Mbps) and\n"
      "                                 per-host CPU fractions (the\n"
      "                                 paper's SIV-B drift cycle)\n"
      "  <t_ms> tick                    drive deferred re-plan rounds\n"
      "                                 (and closed-loop measurement)\n"
      "  <t_ms> rate <stream> constant <mbps>\n"
      "  <t_ms> rate <stream> step <mbps> <at_ms> <factor>\n"
      "  <t_ms> rate <stream> walk <mbps> <period_ms> <vol> <min_f> <max_f>\n"
      "  <t_ms> rate <stream> periodic <mbps> <period_ms> <ampl> <phase>\n"
      "                                 closed-loop ground-truth rate\n"
      "                                 trajectories (times relative to\n"
      "                                 the event timestamp); ignored\n"
      "                                 without --closed-loop\n"
      "Generated traces default to the TraceConfig in\n"
      "src/workload/trace.h: mean event gap 50 ms, kind weights\n"
      "arrival 1.0 / departure 0.35 / failure 0.03 / join 0.06 /\n"
      "drift 0.05 / tick 0.10, floors of 1 failure and 1 drift report,\n"
      "drift scale in [0.5, 2.5] over 2 base streams per report.\n"
      "\n"
      "Service flags:\n"
      "  --timeout-ms N   per-query MILP solver deadline (default 150).\n"
      "                   On expiry the solver returns its best incumbent\n"
      "                   (or falls back to the greedy heuristic);\n"
      "                   breaches are reason-coded in the audit journal\n"
      "                   and counted in solver_deadline_breaches /\n"
      "                   heuristic_fallbacks. 0 expires every solve at\n"
      "                   once, a deterministic degraded-mode replay\n"
      "  --max-nodes N    branch-and-bound node budget per solve; combine\n"
      "                   with a large --timeout-ms for bit-for-bit\n"
      "                   reproducible replays independent of machine\n"
      "                   load (0 = planner default)\n"
      "  --replan-round N max queries re-planned per bounded round\n"
      "                   (default 8)\n"
      "\n"
      "Closed-loop flags (SIV-C self-measurement):\n"
      "  --closed-loop    the service measures its own committed\n"
      "                   deployment every --measure-period ticks\n"
      "                   (ClusterSim under the telemetry rate model's\n"
      "                   ground-truth rates) and feeds the result\n"
      "                   through the SIV-B drift cycle — re-planning\n"
      "                   fires with zero scripted monitor events.\n"
      "                   Generated traces emit rate directives instead\n"
      "                   of monitor reports (and more ticks)\n"
      "  --measure-mode engine|analytic\n"
      "                   how a self-measurement observes the committed\n"
      "                   deployment (default engine). engine executes\n"
      "                   it via ClusterSim under the true rates — the\n"
      "                   ground truth, one simulation per measuring\n"
      "                   tick. analytic derives the same observables\n"
      "                   from the deployment ledgers scaled by\n"
      "                   truth/estimate rate ratios — no simulation,\n"
      "                   O(placed operators) per tick, same drift\n"
      "                   decisions at zero noise (the equivalence\n"
      "                   contract in src/telemetry/README.md)\n"
      "  --measure-period N\n"
      "                   ticks between self-measurements (default 4)\n"
      "  --rate-seed N    seed for ground-truth trajectories and\n"
      "                   measurement noise (default: --seed)\n"
      "\n"
      "Observability flags (docs/ARCHITECTURE.md \u00a77):\n"
      "  --trace-out FILE enable the flight recorder for the replay and\n"
      "                   write the captured spans as Chrome trace_event\n"
      "                   JSON (open in Perfetto / chrome://tracing).\n"
      "                   Spans cover the full event path and the solver\n"
      "                   phases; tracing never changes behavior or the\n"
      "                   committed deployments\n"
      "  --trace-capacity N\n"
      "                   spans the trace ring retains before the oldest\n"
      "                   are overwritten (default 32768; drops are\n"
      "                   counted in the trace's otherData)\n"
      "  --metrics-out FILE\n"
      "                   write a metrics exposition after the run: the\n"
      "                   sqpr-metrics-v1 JSON snapshot (default), or —\n"
      "                   with --metrics-interval — the\n"
      "                   sqpr-metrics-series-v1 JSONL time series\n"
      "  --metrics-interval MS\n"
      "                   periodic exposition: snapshot the service\n"
      "                   metrics every MS *virtual* milliseconds and\n"
      "                   append one series line per interval to\n"
      "                   --metrics-out (cumulative + per-interval delta;\n"
      "                   delta quantiles are resolved from the window's\n"
      "                   own histogram buckets, not approximated)\n"
      "  --metrics-format json|openmetrics\n"
      "                   exposition format (default json). openmetrics\n"
      "                   writes OpenMetrics text (counters as _total,\n"
      "                   histograms as quantile summaries, '# EOF'\n"
      "                   terminated; one block per interval in series\n"
      "                   mode, labelled with the virtual time)\n"
      "  --stats-json FILE\n"
      "                   write the final ServiceStats as JSON (schema\n"
      "                   sqpr-service-stats-v1): every counter, the\n"
      "                   stage histograms and the watchdog tallies\n"
      "  --audit-out FILE enable the decision audit journal and write it\n"
      "                   as sqpr-audit-v1 JSONL: every admit / reject /\n"
      "                   re-plan / evict / drift / conflict\n"
      "                   decision in commit order, with reason codes,\n"
      "                   virtual timestamps, wall latencies and pre/post\n"
      "                   deployment fingerprints\n"
      "  --audit-canonical\n"
      "                   write only the canonical stratum — speculative\n"
      "                   records and wall-clock fields dropped. This\n"
      "                   rendering is byte-identical across replays of\n"
      "                   the same trace+seed\n"
      "  --stall-ms F     watchdog: count Step() calls whose wall time\n"
      "                   exceeds F ms as event-loop stalls (the virtual\n"
      "                   clock stood still while the wall clock ran)\n"
      "  --budget-ms STAGE=F\n"
      "                   watchdog: per-stage wall-latency budget in ms;\n"
      "                   STAGE one of admit,solve,commit,measure.\n"
      "                   Repeatable. Samples over budget bump\n"
      "                   the matching *_budget_breaches counter\n"
      "\n"
      "Durability flags (docs/ARCHITECTURE.md \"Durability & degraded\n"
      "modes\"):\n"
      "  --checkpoint-out FILE\n"
      "                   write a sqpr-checkpoint-v1 JSON checkpoint of\n"
      "                   the full service state to FILE when the replay\n"
      "                   finishes (and periodically, with\n"
      "                   --checkpoint-every). Writes go through a\n"
      "                   temp-file + atomic-rename protocol: a crash\n"
      "                   mid-write never leaves a torn file under FILE,\n"
      "                   only the previous intact checkpoint\n"
      "  --checkpoint-every N\n"
      "                   also checkpoint after every N consumed events\n"
      "                   (requires --checkpoint-out). Each checkpoint is\n"
      "                   a barrier — the pending re-planning round\n"
      "                   commits first — so a restored run and an\n"
      "                   uninterrupted run with the same cadence commit\n"
      "                   bit-identical deployments\n"
      "  --restore FILE   resume from a checkpoint instead of starting\n"
      "                   fresh: rebuild the scenario from the SAME\n"
      "                   scenario/trace flags (same --seed, --hosts,\n"
      "                   --streams, ... and the same trace), restore the\n"
      "                   service state from FILE, and replay only the\n"
      "                   not-yet-consumed suffix of the trace. An\n"
      "                   unreadable, truncated, corrupted or\n"
      "                   version-mismatched FILE exits with status 1 and\n"
      "                   a quoted error on stderr — never an abort.\n"
      "                   Unknown JSON fields are ignored (forward\n"
      "                   compatibility)\n"
      "\n"
      "The SQPR_FAULT=<point>:<n> environment variable (see\n"
      "src/common/fault.h) kills the process with exit code 43 at the\n"
      "n-th hit of a named crash point (event, mid-round,\n"
      "checkpoint-write) for crash-restore drills:\n"
      "  SQPR_FAULT=event:120 sqpr_service --checkpoint-out ck.json \\\n"
      "      --checkpoint-every 40 ...   # crashes after event 120\n"
      "  sqpr_service --restore ck.json --checkpoint-out ck.json \\\n"
      "      --checkpoint-every 40 ...   # finishes the replay\n"
      "\n"
      "  --verbose        print every event outcome\n"
      "  --help           show this message and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqpr;

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--help" || flag == "-h") {
      Usage(stdout);
      return 0;
    } else if (flag == "--hosts" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 2, cli::kMaxHosts, &args.hosts)) {
        return 2;
      }
    } else if (flag == "--cpu" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.cpu)) return 2;
    } else if (flag == "--nic" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.nic_mbps)) return 2;
    } else if (flag == "--link" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.link_mbps)) return 2;
    } else if (flag == "--streams" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount, &args.streams)) {
        return 2;
      }
    } else if (flag == "--rate" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.rate_mbps, true)) return 2;
    } else if (flag == "--queries" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount, &args.queries)) {
        return 2;
      }
    } else if (flag == "--arities" && (v = next())) {
      if (!cli::AritiesFlag(flag.c_str(), v, &args.arities)) return 2;
    } else if (flag == "--zipf" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.zipf)) return 2;
    } else if (flag == "--seed" && (v = next())) {
      if (!cli::SeedFlag(flag.c_str(), v, &args.seed)) return 2;
    } else if (flag == "--events" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount, &args.events)) {
        return 2;
      }
    } else if (flag == "--timeout-ms" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 0, kMaxMs, &args.timeout_ms)) return 2;
    } else if (flag == "--max-nodes" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 0, kMaxNodes, &args.max_nodes)) {
        return 2;
      }
    } else if (flag == "--replan-round" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount,
                        &args.replan_round)) {
        return 2;
      }
    } else if (flag == "--closed-loop") {
      args.closed_loop = true;
    } else if (flag == "--measure-mode" && (v = next())) {
      if (std::strcmp(v, "engine") == 0) {
        args.measure_mode = sqpr::MeasureMode::kEngine;
      } else if (std::strcmp(v, "analytic") == 0) {
        args.measure_mode = sqpr::MeasureMode::kAnalytic;
      } else {
        std::fprintf(stderr, "invalid --measure-mode value: %s\n\n", v);
        Usage(stderr);
        return 2;
      }
    } else if (flag == "--measure-period" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount,
                        &args.measure_period)) {
        return 2;
      }
    } else if (flag == "--rate-seed" && (v = next())) {
      if (!cli::SeedFlag(flag.c_str(), v, &args.rate_seed)) return 2;
      args.rate_seed_set = true;
    } else if (flag == "--trace" && (v = next())) {
      args.trace_path = v;
    } else if (flag == "--save-trace" && (v = next())) {
      args.save_trace_path = v;
    } else if (flag == "--trace-out" && (v = next())) {
      args.trace_out_path = v;
    } else if (flag == "--trace-capacity" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, kMaxTraceCapacity,
                        &args.trace_capacity)) {
        return 2;
      }
    } else if (flag == "--metrics-out" && (v = next())) {
      args.metrics_out_path = v;
    } else if (flag == "--metrics-interval" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 0, kMaxMs,
                        &args.metrics_interval_ms)) {
        return 2;
      }
    } else if (flag == "--metrics-format" && (v = next())) {
      args.metrics_format = v;
      if (args.metrics_format != "json" &&
          args.metrics_format != "openmetrics") {
        std::fprintf(stderr, "invalid --metrics-format value: %s\n\n", v);
        Usage(stderr);
        return 2;
      }
    } else if (flag == "--stats-json" && (v = next())) {
      args.stats_json_path = v;
    } else if (flag == "--audit-out" && (v = next())) {
      args.audit_out_path = v;
    } else if (flag == "--audit-canonical") {
      args.audit_canonical = true;
    } else if (flag == "--stall-ms" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.stall_ms)) return 2;
    } else if (flag == "--budget-ms" && (v = next())) {
      const char* eq = std::strchr(v, '=');
      double ms = 0.0;
      if (eq == nullptr || !cli::ParseReal(eq + 1, &ms) || ms <= 0) {
        cli::ReportBadValue(flag.c_str(), v, "STAGE=MS with finite MS > 0");
        return 2;
      }
      const std::string stage(v, eq - v);
      if (stage == "admit") {
        args.budget_admit_ms = ms;
      } else if (stage == "solve") {
        args.budget_solve_ms = ms;
      } else if (stage == "commit") {
        args.budget_commit_ms = ms;
      } else if (stage == "measure") {
        args.budget_measure_ms = ms;
      } else {
        std::fprintf(stderr, "unknown --budget-ms stage: %s\n\n",
                     stage.c_str());
        Usage(stderr);
        return 2;
      }
    } else if (flag == "--checkpoint-out" && (v = next())) {
      args.checkpoint_out_path = v;
    } else if (flag == "--checkpoint-every" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 0, cli::kMaxCount,
                        &args.checkpoint_every)) {
        return 2;
      }
    } else if (flag == "--restore" && (v = next())) {
      args.restore_path = v;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag (or flag missing its value): %s\n\n",
                   flag.c_str());
      Usage(stderr);
      return 2;
    }
  }
  if (args.checkpoint_every > 0 && args.checkpoint_out_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every requires --checkpoint-out\n\n");
    Usage(stderr);
    return 2;
  }

  Cluster cluster(args.hosts,
                  HostSpec{args.cpu, args.nic_mbps, args.nic_mbps, ""},
                  args.link_mbps);
  Catalog catalog{CostModel{}};

  WorkloadConfig wc;
  wc.num_base_streams = args.streams;
  wc.base_rate_mbps = args.rate_mbps;
  wc.zipf_s = args.zipf;
  wc.arities = args.arities;
  wc.num_queries = args.queries;
  wc.seed = args.seed;
  Result<Workload> workload = GenerateWorkload(wc, args.hosts, &catalog);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  std::vector<Event> trace;
  if (!args.trace_path.empty()) {
    Result<std::vector<Event>> loaded = LoadTrace(args.trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "trace: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(*loaded);
  } else {
    TraceConfig tc;
    tc.num_events = args.events;
    tc.seed = args.seed;
    if (args.closed_loop) {
      // Drift slots become ground-truth rate directives, and the tick
      // weight rises so the self-measurement loop actually fires.
      tc.closed_loop = true;
      tc.tick_weight = std::max(tc.tick_weight, 0.5);
      tc.drift_weight = std::max(tc.drift_weight, 0.10);
      tc.min_drift_reports = std::max(tc.min_drift_reports, 3);
    }
    Result<std::vector<Event>> generated =
        GenerateTrace(tc, *workload, args.hosts, catalog);
    if (!generated.ok()) {
      std::fprintf(stderr, "trace: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    trace = std::move(*generated);
  }
  if (!args.save_trace_path.empty()) {
    const Status saved = SaveTrace(trace, args.save_trace_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-trace: %s\n", saved.ToString().c_str());
      return 1;
    }
  }

  ServiceOptions options;
  options.planner.timeout_ms = args.timeout_ms;
  if (args.max_nodes > 0) options.planner.max_nodes = args.max_nodes;
  options.replan.max_queries_per_round = args.replan_round;
  options.closed_loop = args.closed_loop;
  options.telemetry.mode = args.measure_mode;
  options.telemetry.measure_period = args.measure_period;
  options.telemetry.seed = args.rate_seed_set ? args.rate_seed : args.seed;
  obs::AuditJournal audit_journal;
  if (!args.audit_out_path.empty()) options.audit = &audit_journal;
  options.watchdog.event_stall_ms = args.stall_ms;
  options.watchdog.admit_budget_ms = args.budget_admit_ms;
  options.watchdog.solve_budget_ms = args.budget_solve_ms;
  options.watchdog.commit_budget_ms = args.budget_commit_ms;
  options.watchdog.measure_budget_ms = args.budget_measure_ms;
  if (!args.trace_out_path.empty()) {
    obs::TraceRecorder::Options trace_options;
    trace_options.per_thread_capacity = args.trace_capacity;
    obs::TraceRecorder::Get().Enable(trace_options);
    obs::TraceRecorder::SetCurrentThreadName("loop");
  }

  PlanningService service(&cluster, &catalog, options);

  // Resume from a checkpoint before any event is enqueued (the restore
  // path insists on a fresh service). Every failure mode — missing
  // file, truncation, corruption, schema mismatch — is a quoted error
  // and exit 1, never an abort: a bad checkpoint must not take the
  // operator's shell session down with it.
  size_t resume_from = 0;
  if (!args.restore_path.empty()) {
    Result<std::string> blob = ReadFileToString(args.restore_path);
    if (!blob.ok()) {
      std::fprintf(stderr, "restore: cannot read \"%s\": %s\n",
                   args.restore_path.c_str(),
                   blob.status().ToString().c_str());
      return 1;
    }
    const Status restored = service.RestoreCheckpoint(*blob);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore: \"%s\": %s\n", args.restore_path.c_str(),
                   restored.ToString().c_str());
      return 1;
    }
    // The checkpoint records how many events the crashed run consumed;
    // replay only the suffix. The trace must match the crashed run's —
    // same scenario flags, same --seed or --trace file.
    resume_from = static_cast<size_t>(service.stats().events);
    if (resume_from > trace.size()) {
      std::fprintf(stderr,
                   "restore: \"%s\" was taken after %zu events but the trace "
                   "has only %zu — wrong trace or scenario flags?\n",
                   args.restore_path.c_str(), resume_from, trace.size());
      return 1;
    }
  }
  for (size_t i = resume_from; i < trace.size(); ++i) {
    const Status st = service.Enqueue(trace[i]);
    if (!st.ok()) {
      std::fprintf(stderr, "enqueue: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const auto write_checkpoint = [&]() -> bool {
    Result<std::string> doc = service.ExportCheckpoint();
    if (!doc.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   doc.status().ToString().c_str());
      return false;
    }
    const Status written = WriteFileAtomic(args.checkpoint_out_path, *doc);
    if (!written.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", written.ToString().c_str());
      return false;
    }
    return true;
  };

  std::printf(
      "scenario: %d hosts (cpu %.2f, nic %.0f, link %.0f), %d base streams "
      "@ %.0f Mbps, zipf %.1f, seed %llu\n",
      args.hosts, args.cpu, args.nic_mbps, args.link_mbps, args.streams,
      args.rate_mbps, args.zipf, static_cast<unsigned long long>(args.seed));
  if (args.closed_loop) {
    std::printf(
        "closed loop: %s self-measurement every %d ticks, rate seed %llu\n",
        MeasureModeName(args.measure_mode), args.measure_period,
        static_cast<unsigned long long>(options.telemetry.seed));
  }
  if (resume_from > 0) {
    std::printf("restored from %s at event %zu (virtual t=%lld ms); "
                "replaying the remaining %zu of %zu events...\n\n",
                args.restore_path.c_str(), resume_from,
                static_cast<long long>(service.clock().now_ms()),
                trace.size() - resume_from, trace.size());
  } else {
    std::printf("replaying %zu events through the planning service...\n\n",
                trace.size());
  }

  // Periodic metrics exposition, sampled on virtual-time interval
  // boundaries. A restored run's series starts after the restored clock,
  // and its first delta is taken against the restored counters.
  std::optional<MetricsSeries> series;
  if (!args.metrics_out_path.empty() && args.metrics_interval_ms > 0) {
    series.emplace(args.metrics_interval_ms,
                   args.metrics_format == "openmetrics",
                   service.clock().now_ms(), service.stats());
  }

  // Per-event-kind latency aggregation.
  constexpr int kNumKinds = 7;
  double kind_ms[kNumKinds] = {};
  double kind_max_ms[kNumKinds] = {};
  int64_t kind_count[kNumKinds] = {};
  while (service.HasPendingEvents()) {
    Result<EventOutcome> outcome = service.Step();
    if (!outcome.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    if (series) {
      series->SampleThrough(service.clock().now_ms(), service.stats());
    }
    const int k = static_cast<int>(outcome->event.kind);
    kind_ms[k] += outcome->wall_ms;
    kind_max_ms[k] = std::max(kind_max_ms[k], outcome->wall_ms);
    ++kind_count[k];
    if (args.verbose) {
      std::printf("  %-70s %7.2f ms\n",
                  outcome->ToString(catalog).c_str(), outcome->wall_ms);
    }
    // Periodic checkpoint on the event-count cadence (counted by total
    // consumed events, so a restored run checkpoints at the same
    // boundaries as the run it resumed), then the injected crash point:
    // a SQPR_FAULT=event:n drill always crashes with the freshest
    // eligible checkpoint already renamed into place.
    if (args.checkpoint_every > 0 &&
        service.stats().events % args.checkpoint_every == 0) {
      if (!write_checkpoint()) return 1;
    }
    fault::MaybeCrash("event");
  }
  service.FinishInFlightRound();
  if (!args.checkpoint_out_path.empty()) {
    // Final checkpoint after the pending round commits. Written before
    // FinalizeAudit so the checkpoint barrier's own audit records are
    // part of the journal like any other round's.
    if (!write_checkpoint()) return 1;
    std::printf("checkpoint written to %s\n",
                args.checkpoint_out_path.c_str());
  }
  service.FinalizeAudit();
  if (series) {
    // Final sample after the pending round commits, so the series always ends
    // with the run's complete totals.
    series->Sample(service.clock().now_ms(), service.stats());
  }

  const ServiceStats& stats = service.stats();
  std::printf("events consumed: %lld in %.1f ms virtual-final t=%lld ms\n",
              static_cast<long long>(stats.events), stats.total_wall_ms,
              static_cast<long long>(service.clock().now_ms()));
  std::printf("\nper-event-kind latency:\n");
  static const char* kKindNames[] = {"arrival",     "departure",
                                     "host-join",   "host-failure",
                                     "monitor",     "tick",
                                     "rate-directive"};
  static const EventKind kKinds[] = {
      EventKind::kQueryArrival, EventKind::kQueryDeparture,
      EventKind::kHostJoin,     EventKind::kHostFailure,
      EventKind::kMonitorReport, EventKind::kTick,
      EventKind::kRateDirective};
  for (int i = 0; i < kNumKinds; ++i) {
    const int k = static_cast<int>(kKinds[i]);
    if (kind_count[k] == 0) continue;
    std::printf("  %-14s %5lld events  avg %7.2f ms  max %7.2f ms\n",
                kKindNames[i], static_cast<long long>(kind_count[k]),
                kind_ms[k] / kind_count[k], kind_max_ms[k]);
  }

  std::printf("\nper-stage latency:\n");
  const auto print_stage = [](const char* name, const obs::Histogram& s) {
    if (s.count() == 0) return;
    std::printf("  %-14s %6zu samples  avg %7.2f ms  max %7.2f ms\n", name,
                s.count(), s.mean(), s.max());
  };
  print_stage("admit", stats.admit_ms);
  print_stage("solve", stats.solve_ms);
  print_stage("commit", stats.commit_ms);
  if (stats.solve_ms.count() > 0) {
    std::printf(
        "  solver wall-time percentiles: p50 %.2f ms  p90 %.2f ms  "
        "p99 %.2f ms (%zu samples)\n",
        stats.solve_ms.Quantile(0.50), stats.solve_ms.Quantile(0.90),
        stats.solve_ms.Quantile(0.99), stats.solve_ms.count());
  }

  std::printf("\nadmission: %lld arrivals -> %lld admitted "
              "(%lld dedup), %lld rejected\n",
              static_cast<long long>(stats.arrivals),
              static_cast<long long>(stats.admitted),
              static_cast<long long>(stats.dedup_hits),
              static_cast<long long>(stats.rejected));
  std::printf("churn: %lld departures, %lld failures, %lld joins, "
              "%lld monitor reports\n",
              static_cast<long long>(stats.departures),
              static_cast<long long>(stats.host_failures),
              static_cast<long long>(stats.host_joins),
              static_cast<long long>(stats.monitor_reports));
  if (args.closed_loop || stats.rate_directives > 0) {
    std::printf("closed loop: %lld rate directives, %lld measurement ticks "
                "(%lld analytic), %lld auto re-plan rounds\n",
                static_cast<long long>(stats.rate_directives),
                static_cast<long long>(stats.measurement_ticks),
                static_cast<long long>(stats.analytic_ticks),
                static_cast<long long>(stats.auto_replan_rounds));
    if (stats.measure_ms.count() > 0) {
      std::printf("measurement cost: avg %.3f ms, max %.3f ms per "
                  "measuring tick (%s mode)\n",
                  stats.measure_ms.mean(), stats.measure_ms.max(),
                  MeasureModeName(args.measure_mode));
    }
  }
  if (stats.solver_deadline_breaches > 0 || stats.catalog_exhausted > 0) {
    std::printf("degraded modes: %lld solver deadline breaches, %lld "
                "heuristic fallbacks, %lld catalog-exhausted rejections\n",
                static_cast<long long>(stats.solver_deadline_breaches),
                static_cast<long long>(stats.heuristic_fallbacks),
                static_cast<long long>(stats.catalog_exhausted));
  }
  std::printf("re-planning: %lld evictions, %lld rounds, "
              "%lld re-admitted, %lld rejected, %d still pending\n",
              static_cast<long long>(stats.evictions),
              static_cast<long long>(stats.replan_rounds),
              static_cast<long long>(stats.replanned_admitted),
              static_cast<long long>(stats.replanned_rejected),
              service.pending_replans());
  std::printf("solver effort: %lld B&B nodes, %lld LP pivots over %zu "
              "solves (%lld factorizations, %lld dual LP calls, %lld "
              "slack-start pivots, %lld rejected candidates); "
              "rejections: %lld screened, %lld B&B nodes, %lld LP pivots\n",
              static_cast<long long>(stats.solver_nodes),
              static_cast<long long>(stats.lp_iterations),
              stats.solve_ms.count(),
              static_cast<long long>(stats.lp_factorizations),
              static_cast<long long>(stats.lp_dual_solves),
              static_cast<long long>(stats.lp_slack_start_iterations),
              static_cast<long long>(stats.rejected_candidates),
              static_cast<long long>(stats.screened_rejections),
              static_cast<long long>(stats.rejected_solver_nodes),
              static_cast<long long>(stats.rejected_lp_iterations));
  if (args.stall_ms > 0 || args.budget_admit_ms > 0 ||
      args.budget_solve_ms > 0 || args.budget_commit_ms > 0 ||
      args.budget_measure_ms > 0) {
    std::printf("watchdog: %lld event-loop stalls (worst %.2f ms); budget "
                "breaches: admit %lld, solve %lld, commit %lld, measure "
                "%lld\n",
                static_cast<long long>(stats.loop_stalls),
                stats.worst_stall_ms,
                static_cast<long long>(stats.admit_budget_breaches),
                static_cast<long long>(stats.solve_budget_breaches),
                static_cast<long long>(stats.commit_budget_breaches),
                static_cast<long long>(stats.measure_budget_breaches));
  }

  const PlanCache& cache = service.plan_cache();
  std::printf("plan cache: %lld exact hits, %lld partial hits, "
              "%lld misses\n",
              static_cast<long long>(cache.exact_hits()),
              static_cast<long long>(cache.partial_hits()),
              static_cast<long long>(cache.misses()));
  std::printf("incremental solves: %lld model patches, %lld rebuilds\n",
              static_cast<long long>(stats.model_patches),
              static_cast<long long>(stats.model_rebuilds));

  const Deployment& dep = service.deployment();
  std::printf("\nfinal deployment: %zu queries served, %d operators, "
              "%d flows\n",
              service.admitted_queries().size(), dep.num_placed_operators(),
              dep.num_flows());
  const Status audit = dep.Validate();
  std::printf("deployment audit: %s\n", audit.ToString().c_str());
  if (!audit.ok()) return 1;
  if (cache.hits() == 0) {
    std::fprintf(stderr, "warning: no plan-cache hits in this trace\n");
  }

  // Writes one output file; false (with the flag and the quoted error
  // on stderr) when any byte of it is lost.
  const auto write_output = [](const char* flag, const std::string& path,
                               const std::string& text) {
    const Status written = WriteFile(path, text);
    if (!written.ok()) {
      std::fprintf(stderr, "%s: %s\n", flag, written.ToString().c_str());
    }
    return written.ok();
  };
  if (!args.trace_out_path.empty()) {
    if (!write_output("--trace-out", args.trace_out_path,
                      obs::TraceRecorder::Get().ChromeTraceJson())) {
      return 1;
    }
    std::printf("\nflight-recorder trace written to %s\n",
                args.trace_out_path.c_str());
  }
  if (!args.metrics_out_path.empty()) {
    if (series) {
      if (!write_output("--metrics-out", args.metrics_out_path,
                        series->text())) {
        return 1;
      }
      std::printf("metrics series (%s, every %lld virtual ms) written to "
                  "%s\n", args.metrics_format.c_str(),
                  static_cast<long long>(args.metrics_interval_ms),
                  args.metrics_out_path.c_str());
    } else {
      // One exposition at exit: every published counter and stage
      // histogram under its stable service.* name.
      const obs::MetricsSnapshot snap = ServiceMetrics(stats);
      const std::string text = args.metrics_format == "openmetrics"
                                   ? snap.ToOpenMetrics({})
                                   : snap.ToPrettyJson();
      if (!write_output("--metrics-out", args.metrics_out_path, text)) {
        return 1;
      }
      std::printf("metrics snapshot (%s) written to %s\n",
                  args.metrics_format.c_str(), args.metrics_out_path.c_str());
    }
  }
  if (!args.stats_json_path.empty()) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"schema\":\"sqpr-service-stats-v1\",\"final_t_ms\":%lld,"
                  "\"total_wall_ms\":%.6g,\"max_event_ms\":%.6g,"
                  "\"worst_stall_ms\":%.6g,\"stats\":",
                  static_cast<long long>(service.clock().now_ms()),
                  stats.total_wall_ms, stats.max_event_ms,
                  stats.worst_stall_ms);
    const std::string text = head + ServiceMetrics(stats).ToJson() + "}\n";
    if (!write_output("--stats-json", args.stats_json_path, text)) return 1;
    std::printf("service stats written to %s\n", args.stats_json_path.c_str());
  }
  if (!args.audit_out_path.empty()) {
    if (!write_output("--audit-out", args.audit_out_path,
                      audit_journal.ToJsonl(args.audit_canonical))) {
      return 1;
    }
    std::printf("audit journal written to %s (%zu records, %zu canonical%s)"
                "\n", args.audit_out_path.c_str(), audit_journal.size(),
                audit_journal.canonical_size(),
                args.audit_canonical ? ", canonical rendering" : "");
  }
  return 0;
}
