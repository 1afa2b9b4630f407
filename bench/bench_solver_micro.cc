// Solver micro-bench: isolates the incremental-solve savings on the
// planner's hot path, as machine-readable numbers (the
// BENCH_solver_micro.json trajectory):
//
//  * build-vs-patch — constructing a grounded SQPR model from scratch
//    (every variable, row and coefficient) vs Rebind-ing a cached
//    skeleton against a new base deployment (bounds only, O(rows));
//  * node-resolve — the deterministic LP work of one MILP solve on the
//    hot-started engine: LP calls, pivots, factorizations, and pivots per
//    warm re-solve; plus the LP's own wall time per call and per pivot
//    (the lp/simplex trace spans), so a simplex-kernel change shows
//    apart from the rest of the solve.
//
// Shape checks gate correctness, not speed: a patched model must match
// a fresh build bit for bit. Absolute timings land in the JSON for the
// checked-in baseline diff; CI only gates the schema (timings are
// host-dependent).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "milp/solver.h"
#include "obs/trace.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/model_cache.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {
namespace {

constexpr uint64_t kSeed = 11;

struct Fixture {
  bench::Scenario scenario;
  SqprPlanner planner;
  std::vector<StreamId> streams;
  std::vector<OperatorId> operators;
  std::vector<DemandSpec> demands;
  StreamId query = kInvalidStream;

  explicit Fixture(const bench::ScenarioConfig& config)
      : scenario(bench::MakeScenario(config)),
        planner(scenario.cluster.get(), scenario.catalog.get(),
                [] {
                  SqprPlanner::Options o;
                  o.timeout_ms = 250;
                  return o;
                }()) {}
};

/// Admits a prefix of the workload so the base deployment carries the
/// committed operators/flows a mid-experiment solve patches against,
/// then grounds the relevant sets of the next unserved query.
std::unique_ptr<Fixture> MakeFixture() {
  // Small enough (4 hosts, 2-way joins) that every solve below takes
  // milliseconds.
  bench::ScenarioConfig config;
  config.hosts = 4;
  config.base_streams = 16;
  config.queries = 16;
  config.arities = {2};
  config.seed = kSeed;
  auto f = std::make_unique<Fixture>(config);
  for (int i = 0; i < 8; ++i) {
    const Status st =
        f->planner.SubmitQuery(f->scenario.workload.queries[i]).status();
    SQPR_CHECK(st.ok()) << st.ToString();
  }
  f->query = f->scenario.workload.queries[8];
  const Closure closure = *f->scenario.catalog->JoinClosure(f->query);
  f->streams = closure.streams;
  f->operators = closure.operators;
  f->demands = {{f->query, /*must_serve=*/false}};
  return f;
}

int BenchBuildVsPatch(Fixture* f, bench::BenchJsonWriter* json) {
  constexpr int kIters = 50;
  int failed = 0;

  Stopwatch build_watch;
  for (int i = 0; i < kIters; ++i) {
    SqprMip mip(f->planner.deployment(), f->streams, f->operators,
                f->demands, {});
    // Touch the model so the build cannot be elided.
    if (mip.mip().lp.num_variables() == 0) ++failed;
  }
  const double build_ms = build_watch.ElapsedMillis() / kIters;

  SqprMip cached(f->planner.deployment(), f->streams, f->operators,
                 f->demands, {});
  Stopwatch patch_watch;
  for (int i = 0; i < kIters; ++i) {
    cached.Rebind(f->planner.deployment());
  }
  const double patch_ms = patch_watch.ElapsedMillis() / kIters;

  // The whole cache rests on this: a rebound skeleton IS a fresh build.
  SqprMip reference(f->planner.deployment(), f->streams, f->operators,
                    f->demands, {});
  const Status same = cached.CheckModelEquals(reference);
  if (!bench::ShapeCheck(same.ok(),
                         "patched model bit-identical to fresh build")) {
    ++failed;
  }
  if (!bench::ShapeCheck(patch_ms <= build_ms,
                         "bounds-only patch no slower than full build")) {
    ++failed;
  }

  std::printf("model build %7.3f ms   patch %7.3f ms   (%.1fx, %d vars)\n",
              build_ms, patch_ms, build_ms / std::max(patch_ms, 1e-9),
              reference.mip().lp.num_variables());
  bench::BenchRecord& rec = json->Add("build_vs_patch");
  rec.labels["hosts"] = std::to_string(f->scenario.cluster->num_hosts());
  rec.metrics["build_ms_avg"] = build_ms;
  rec.metrics["patch_ms_avg"] = patch_ms;
  rec.metrics["model_vars"] = reference.mip().lp.num_variables();
  rec.metrics["model_rows"] = reference.mip().lp.num_rows();
  return failed;
}

/// Summed duration of the drained lp/simplex spans, in microseconds.
double SimplexSpanUs(const std::vector<obs::SpanRecord>& spans) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  uint64_t ns = 0;
  for (const obs::SpanRecord& span : spans) {
    if (recorder.span_meta(span.name_id).name == "lp/simplex") {
      ns += span.dur_ns;
    }
  }
  return static_cast<double>(ns) / 1000.0;
}

/// Deterministic LP work per MILP solve: admits each remaining workload
/// query against the fixture's base deployment, node-bounded so every
/// counter is a function of the inputs alone. The set is solved kReps
/// times with the trace recorder on; the LP wall time is the fastest
/// rep's (the counters are equal across reps).
int BenchNodeResolve(Fixture* f, bench::BenchJsonWriter* json) {
  constexpr int kReps = 7;
  int failed = 0;
  int64_t solves = 0;
  lp::SimplexCounters total;
  int64_t nodes = 0;
  double lp_us = 0.0;
  bool repeats = true;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  const auto& queries = f->scenario.workload.queries;
  for (int rep = 0; rep < kReps; ++rep) {
    recorder.Enable();
    lp::SimplexCounters rep_total;
    for (size_t i = 8; i < queries.size(); ++i) {
      const Closure closure = *f->scenario.catalog->JoinClosure(queries[i]);
      SqprMip mip(f->planner.deployment(), closure.streams, closure.operators,
                  {{queries[i], /*must_serve=*/false}}, {});
      const std::vector<double> warm = mip.WarmStart();
      SqprMip::CycleCutHandler handler(&mip);
      milp::SolverOptions options;
      options.deadline = Deadline::AfterMillis(60000);
      options.max_nodes = 200;
      options.warm_start = &warm;
      options.lazy = &handler;
      const milp::MipResult r = milp::Solver().Solve(mip.mip(), options);
      SQPR_CHECK(r.has_solution());
      if (rep == 0) {
        ++solves;
        nodes += r.nodes;
      }
      rep_total.solves += r.lp_counters.solves;
      rep_total.slack_starts += r.lp_counters.slack_starts;
      rep_total.slack_start_iterations += r.lp_counters.slack_start_iterations;
      rep_total.iterations += r.lp_counters.iterations;
      rep_total.factorizations += r.lp_counters.factorizations;
      rep_total.dual_solves += r.lp_counters.dual_solves;
    }
    const double rep_us = SimplexSpanUs(recorder.Drain());
    recorder.Disable();
    if (rep == 0) {
      total = rep_total;
      lp_us = rep_us;
    } else {
      lp_us = std::min(lp_us, rep_us);
      repeats &= rep_total.iterations == total.iterations &&
                 rep_total.solves == total.solves;
    }
  }
  if (!bench::ShapeCheck(repeats, "repeated solves repeat the LP work")) {
    ++failed;
  }
  const double per = 1.0 / static_cast<double>(solves);
  const int64_t warm_calls = total.solves - total.slack_starts;
  const double pivots_per_warm =
      warm_calls > 0 ? static_cast<double>(total.iterations -
                                           total.slack_start_iterations) /
                           static_cast<double>(warm_calls)
                     : 0.0;
  const int interval = lp::SimplexOptions{}.refactor_interval;
  if (!bench::ShapeCheck(total.factorizations < total.solves,
                         "fewer factorizations than LP calls")) {
    ++failed;
  }
  if (!bench::ShapeCheck(total.slack_starts <= solves,
                         "at most the root LP starts from the slack basis")) {
    ++failed;
  }
  const double us_per_call = lp_us / static_cast<double>(total.solves);
  const double us_per_pivot =
      lp_us / static_cast<double>(std::max<int64_t>(total.iterations, 1));
  std::printf(
      "node resolve: %.1f LP calls  %.1f pivots  %.2f factorizations "
      "(load + 1/%d pivots = %.2f)  %.2f pivots/warm re-solve per solve\n"
      "              LP wall %.2f us/call  %.3f us/pivot (best of %d)\n",
      total.solves * per, total.iterations * per, total.factorizations * per,
      interval, 1.0 + total.iterations * per / interval, pivots_per_warm,
      us_per_call, us_per_pivot, kReps);
  bench::BenchRecord& rec = json->Add("node_resolve");
  rec.labels["milp_solves"] = std::to_string(solves);
  rec.labels["max_nodes"] = "200";
  rec.metrics["nodes_per_solve"] = nodes * per;
  rec.metrics["lp_calls_per_solve"] = total.solves * per;
  rec.metrics["pivots_per_solve"] = total.iterations * per;
  rec.metrics["factorizations_per_solve"] = total.factorizations * per;
  rec.metrics["dual_solves_per_solve"] = total.dual_solves * per;
  rec.metrics["pivots_per_warm_resolve"] = pivots_per_warm;
  rec.metrics["lp_us_per_call"] = us_per_call;
  rec.metrics["lp_us_per_pivot"] = us_per_pivot;
  return failed;
}

/// End-to-end: the §IV-B replan loop with the model cache on vs off —
/// what the service-level drift rounds actually pay per solve.
int BenchReplanLoop(bench::BenchJsonWriter* json) {
  int failed = 0;
  double wall[2] = {0.0, 0.0};
  int64_t patches = 0;
  for (int cached = 0; cached < 2; ++cached) {
    bench::ScenarioConfig config;
    config.hosts = 4;
    config.base_streams = 16;
    config.queries = 16;
    config.arities = {2};
    config.seed = kSeed;
    bench::Scenario scenario = bench::MakeScenario(config);
    SqprPlanner::Options options;
    options.timeout_ms = 250;
    options.enable_model_cache = cached != 0;
    SqprPlanner planner(scenario.cluster.get(), scenario.catalog.get(),
                        options);
    for (int i = 0; i < 8; ++i) {
      SQPR_CHECK(planner.SubmitQuery(scenario.workload.queries[i]).ok());
    }
    Stopwatch watch;
    for (int round = 0; round < 6; ++round) {
      const std::vector<StreamId> admitted = planner.admitted_queries();
      for (StreamId q : admitted) {
        SQPR_CHECK_OK(planner.RemoveQueries({q}));
        Result<PlanningStats> stats = planner.SubmitQuery(q);
        SQPR_CHECK(stats.ok()) << stats.status().ToString();
        if (stats->model_patched) ++patches;
      }
    }
    wall[cached] = watch.ElapsedMillis();
  }
  if (!bench::ShapeCheck(patches > 0, "replan loop hits the model cache")) {
    ++failed;
  }
  std::printf("replan loop uncached %8.1f ms   cached %8.1f ms   "
              "(model_patches=%lld)\n",
              wall[0], wall[1], static_cast<long long>(patches));
  bench::BenchRecord& rec = json->Add("replan_loop");
  rec.labels["rounds"] = "6";
  rec.metrics["uncached_wall_ms"] = wall[0];
  rec.metrics["cached_wall_ms"] = wall[1];
  rec.metrics["model_patches"] = static_cast<double>(patches);
  return failed;
}

}  // namespace
}  // namespace sqpr

int main(int argc, char** argv) {
  std::string json_path;
  if (!sqpr::bench::ParseBenchArgs(argc, argv, &json_path)) return 2;

  sqpr::bench::PrintHeader(
      "solver_micro",
      "incremental solves: model build vs patch, LP work per node "
      "re-solve",
      sqpr::kSeed);
  sqpr::bench::BenchJsonWriter json("solver_micro", sqpr::kSeed);

  int failed = 0;
  {
    std::unique_ptr<sqpr::Fixture> fixture = sqpr::MakeFixture();
    failed += sqpr::BenchBuildVsPatch(fixture.get(), &json);
    failed += sqpr::BenchNodeResolve(fixture.get(), &json);
  }
  failed += sqpr::BenchReplanLoop(&json);

  if (!json_path.empty() && !json.WriteFile(json_path, failed)) return 1;
  return failed == 0 ? 0 : 1;
}
