// Solver micro-bench: isolates the incremental-solve savings on the
// planner's hot path, as machine-readable numbers (the
// BENCH_solver_micro.json trajectory):
//
//  * build-vs-patch — constructing a grounded SQPR model from scratch
//    (every variable, row and coefficient) vs Rebind-ing a cached
//    skeleton against a new base deployment (bounds only, O(rows));
//  * cold-vs-warm — solving the same model structure across simulated
//    rounds from a slack basis each time vs chaining each round's root
//    basis (and pooled lazy cycle cuts) into the next solve;
//  * node-resolve — the deterministic LP work of one MILP solve on the
//    hot-started engine: LP calls, pivots, factorizations, and pivots per
//    warm re-solve.
//
// Shape checks gate correctness, not speed: a patched model must match
// a fresh build bit for bit, and a warm-started solve must reach the
// cold objective. Absolute timings land in the JSON for the checked-in
// baseline diff; CI only gates the schema (timings are host-dependent).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "milp/solver.h"
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
  // Small enough (4 hosts, 2-way joins) that the tight-gap cold/warm
  // solves below prove optimality in milliseconds — deadline-truncated
  // solves would make the cold-vs-warm timing (and objective equality)
  // meaningless.
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

int BenchColdVsWarm(Fixture* f, bench::BenchJsonWriter* json) {
  constexpr int kRounds = 12;
  int failed = 0;

  SqprMip mip(f->planner.deployment(), f->streams, f->operators, f->demands,
              {});
  const std::vector<double> warm_point = mip.WarmStart();
  milp::Solver solver;

  auto base_options = [&] {
    milp::SolverOptions options;
    options.deadline = Deadline::AfterMillis(2000);
    options.gap_abs = 1e-9;
    options.gap_rel = 1e-6;
    options.warm_start = &warm_point;
    return options;
  };

  // Cold and warm rounds interleave so clock-frequency drift during the
  // run lands on both sides equally — back-to-back blocks used to swing
  // the comparison by more than the effect under measurement.
  //
  // Warm chain: every round seeds the next with its root basis and
  // harvests lazy cycle cuts — the exact flow SqprPlanner::SubmitBatch runs between
  // re-planning rounds of one drift cycle, including its payoff gate on
  // pooled-cut replay (which this small model fails, so the pool is
  // harvest-only here).
  constexpr int kMinRowsPerPooledCut = 8;  // mirrors SqprPlanner's gate
  milp::CutPool pool;
  std::vector<lp::BasisState> basis;
  std::vector<int> basis_columns;
  int64_t warm_starts = 0, basis_discards = 0;
  int64_t cold_nodes = 0, warm_nodes = 0;
  int64_t cold_pivots = 0, warm_pivots = 0;
  double cold_objective = 0.0, warm_objective = 0.0;
  double cold_total_ms = 0.0, warm_total_ms = 0.0;
  for (int i = 0; i < kRounds; ++i) {
    {
      SqprMip::CycleCutHandler handler(&mip);
      milp::SolverOptions options = base_options();
      options.lazy = &handler;
      Stopwatch round_watch;
      const milp::MipResult r = solver.Solve(mip.mip(), options);
      cold_total_ms += round_watch.ElapsedMillis();
      SQPR_CHECK(r.has_solution());
      cold_objective = r.objective;
      cold_nodes += r.nodes;
      cold_pivots += r.lp_counters.iterations;
    }
    {
      // Frozen copy of the prior rounds' pool as the separation source;
      // the live pool keeps harvesting — same split SubmitBatch uses
      // between prior->cuts and next_art->cuts.
      const milp::CutPool prior = pool;
      SqprMip::CycleCutHandler handler(&mip);
      handler.set_harvest(&pool);
      if (!prior.empty() &&
          mip.mip().lp.num_rows() >=
              kMinRowsPerPooledCut * static_cast<int>(prior.size())) {
        handler.set_pool(&prior);
      }
      milp::SolverOptions options = base_options();
      options.lazy = &handler;
      if (!basis.empty()) {
        options.root_warm_basis = &basis;
        options.root_warm_basis_columns = &basis_columns;
      }
      Stopwatch round_watch;
      milp::MipResult r = solver.Solve(mip.mip(), options);
      warm_total_ms += round_watch.ElapsedMillis();
      SQPR_CHECK(r.has_solution());
      warm_objective = r.objective;
      warm_nodes += r.nodes;
      warm_pivots += r.lp_counters.iterations;
      if (r.used_warm_basis) ++warm_starts;
      if (r.warm_basis_discarded) ++basis_discards;
      basis = std::move(r.root_basis);
      basis_columns = std::move(r.root_basis_columns);
    }
  }
  const double cold_ms = cold_total_ms / kRounds;
  const double warm_ms = warm_total_ms / kRounds;

  if (!bench::ShapeCheck(std::abs(warm_objective - cold_objective) < 1e-6,
                         "warm-started solve reaches cold objective")) {
    ++failed;
  }
  if (!bench::ShapeCheck(warm_starts > 0,
                         "warm chain actually installs the root basis")) {
    ++failed;
  }
  // Judged on deterministic work, not wall time: the two sides differ
  // by about 1% of their time, well inside the host's timing noise.
  if (!bench::ShapeCheck(warm_nodes <= cold_nodes,
                         "warm chain searches no more nodes than cold")) {
    ++failed;
  }

  std::printf(
      "solve cold %8.3f ms   warm %8.3f ms   "
      "nodes cold %lld warm %lld   pivots cold %lld warm %lld   "
      "(warm_starts=%lld discards=%lld pooled_cuts=%zu)\n",
      cold_ms, warm_ms, static_cast<long long>(cold_nodes),
      static_cast<long long>(warm_nodes),
      static_cast<long long>(cold_pivots),
      static_cast<long long>(warm_pivots),
      static_cast<long long>(warm_starts),
      static_cast<long long>(basis_discards), pool.size());
  bench::BenchRecord& rec = json->Add("cold_vs_warm");
  rec.labels["rounds"] = std::to_string(kRounds);
  rec.metrics["cold_solve_ms_avg"] = cold_ms;
  rec.metrics["warm_solve_ms_avg"] = warm_ms;
  rec.metrics["cold_nodes"] = static_cast<double>(cold_nodes);
  rec.metrics["warm_nodes"] = static_cast<double>(warm_nodes);
  rec.metrics["cold_pivots"] = static_cast<double>(cold_pivots);
  rec.metrics["warm_pivots"] = static_cast<double>(warm_pivots);
  rec.metrics["warm_starts"] = static_cast<double>(warm_starts);
  rec.metrics["basis_discards"] = static_cast<double>(basis_discards);
  rec.metrics["pooled_cuts"] = static_cast<double>(pool.size());
  return failed;
}

/// Deterministic LP work per MILP solve: admits each remaining workload
/// query against the fixture's base deployment, node-bounded so every
/// counter is a function of the inputs alone.
int BenchNodeResolve(Fixture* f, bench::BenchJsonWriter* json) {
  int failed = 0;
  int64_t solves = 0;
  lp::SimplexCounters total;
  int64_t nodes = 0;
  const auto& queries = f->scenario.workload.queries;
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
    ++solves;
    nodes += r.nodes;
    total.solves += r.lp_counters.solves;
    total.slack_starts += r.lp_counters.slack_starts;
    total.slack_start_iterations += r.lp_counters.slack_start_iterations;
    total.iterations += r.lp_counters.iterations;
    total.factorizations += r.lp_counters.factorizations;
    total.dual_solves += r.lp_counters.dual_solves;
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
  std::printf(
      "node resolve: %.1f LP calls  %.1f pivots  %.2f factorizations "
      "(load + 1/%d pivots = %.2f)  %.2f pivots/warm re-solve per solve\n",
      total.solves * per, total.iterations * per, total.factorizations * per,
      interval, 1.0 + total.iterations * per / interval, pivots_per_warm);
  bench::BenchRecord& rec = json->Add("node_resolve");
  rec.labels["milp_solves"] = std::to_string(solves);
  rec.labels["max_nodes"] = "200";
  rec.metrics["nodes_per_solve"] = nodes * per;
  rec.metrics["lp_calls_per_solve"] = total.solves * per;
  rec.metrics["pivots_per_solve"] = total.iterations * per;
  rec.metrics["factorizations_per_solve"] = total.factorizations * per;
  rec.metrics["dual_solves_per_solve"] = total.dual_solves * per;
  rec.metrics["pivots_per_warm_resolve"] = pivots_per_warm;
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
        Result<std::vector<PlanningStats>> stats = planner.ReplanQueries({q});
        SQPR_CHECK(stats.ok()) << stats.status().ToString();
        if (stats->front().model_patched) ++patches;
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
      "incremental solves: model build vs patch, cold vs warm start, "
      "LP work per node re-solve",
      sqpr::kSeed);
  sqpr::bench::BenchJsonWriter json("solver_micro", sqpr::kSeed);

  int failed = 0;
  {
    std::unique_ptr<sqpr::Fixture> fixture = sqpr::MakeFixture();
    failed += sqpr::BenchBuildVsPatch(fixture.get(), &json);
    failed += sqpr::BenchColdVsWarm(fixture.get(), &json);
    failed += sqpr::BenchNodeResolve(fixture.get(), &json);
  }
  failed += sqpr::BenchReplanLoop(&json);

  if (!json_path.empty() && !json.WriteFile(json_path, failed)) return 1;
  return failed == 0 ? 0 : 1;
}
