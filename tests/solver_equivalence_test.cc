// Differential solver-equivalence harness for the incremental solve
// path. The planner's model cache is performance-only by design: a
// patched (Rebind-ed) skeleton is bit-identical to a fresh build. These
// tests pin that claim differentially:
//
//  * two planners consume identical randomised churn (admissions,
//    departures, replans, rate drift) — one with the model cache on,
//    one always rebuilding — and must agree after every event on the
//    admitted set, deployment feasibility and (when both prove
//    optimality under tight gaps) the solve objective;
//  * a warm-started simplex solve must reach the cold-start objective
//    on the same model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "lp/simplex.h"
#include "milp/solver.h"
#include "monitor/resource_monitor.h"
#include "planner/sqpr/sqpr_planner.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

SqprPlanner::Options TightOptions(bool cache) {
  SqprPlanner::Options options;
  // Tight gaps + a roomy deadline: both sides prove optimality at this
  // problem scale, which is what makes objective equality assertable
  // (the optima may be symmetric placements, so deployments are
  // compared by feasibility and admitted set, not bit for bit).
  options.timeout_ms = 1500;
  options.mip_gap_abs = 1e-9;
  options.mip_gap_rel = 1e-6;
  options.enable_model_cache = cache;
  return options;
}

/// One churn step applied identically to both planners; asserts the
/// differential properties afterwards.
class SolverEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverEquivalenceTest, IncrementalMatchesFromScratchUnderChurn) {
  const uint64_t seed = 0x5eed + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  // Kept small enough (3 hosts, 2-way joins) that the tight-gap solves
  // prove optimality well inside the deadline — a deadline-truncated
  // solve makes the objective comparison vacuous.
  Catalog catalog(CostModel{});
  Cluster cluster(3, HostSpec{0.6, 90.0, 90.0, ""}, 180.0);
  WorkloadConfig wc;
  wc.num_base_streams = 12;
  wc.num_queries = 24;
  wc.arities = {2};
  wc.seed = seed;
  Workload workload = *GenerateWorkload(wc, 3, &catalog);

  // Both planners share the catalog and cluster (planners only read
  // them during solves; the drift step below mutates the catalog once
  // for both).
  SqprPlanner incremental(&cluster, &catalog, TightOptions(true));
  SqprPlanner scratch(&cluster, &catalog, TightOptions(false));
  ResourceMonitor monitor(&catalog, DriftOptions{});

  int64_t patched_solves = 0;
  size_t next_query = 0;
  for (int step = 0; step < 30; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45 && next_query < workload.queries.size()) {
      const StreamId q = workload.queries[next_query++];
      Result<PlanningStats> a = incremental.SubmitQuery(q);
      Result<PlanningStats> b = scratch.SubmitQuery(q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->admitted, b->admitted)
          << "seed " << seed << " step " << step << " query " << q;
      if (a->model_patched) ++patched_solves;
      if (a->proved_optimal && b->proved_optimal) {
        EXPECT_NEAR(a->objective, b->objective, 1e-6)
            << "seed " << seed << " step " << step << " query " << q;
      }
    } else if (dice < 0.65 && !incremental.admitted_queries().empty()) {
      const auto& admitted = incremental.admitted_queries();
      const StreamId victim = admitted[rng.NextUint64() % admitted.size()];
      ASSERT_TRUE(incremental.RemoveQuery(victim).ok());
      ASSERT_TRUE(scratch.RemoveQuery(victim).ok());
    } else if (dice < 0.9 && !incremental.admitted_queries().empty()) {
      // §IV-B replan of one query: the highest cache-hit-rate path —
      // the relevant sets (and so the solve structure) usually match
      // the query's previous admission solve.
      const auto& admitted = incremental.admitted_queries();
      const StreamId q = admitted[rng.NextUint64() % admitted.size()];
      Result<std::vector<PlanningStats>> a = incremental.ReplanQueries({q});
      Result<std::vector<PlanningStats>> b = scratch.ReplanQueries({q});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->front().admitted, b->front().admitted)
          << "seed " << seed << " step " << step << " replan " << q;
      if (a->front().model_patched) ++patched_solves;
      if (a->front().proved_optimal && b->front().proved_optimal) {
        EXPECT_NEAR(a->front().objective, b->front().objective, 1e-6)
            << "seed " << seed << " step " << step << " replan " << q;
      }
    } else if (!incremental.admitted_queries().empty()) {
      // Rate drift: one shared catalog install (epoch bump — the cache
      // invalidation path), then the §IV-B cycle on both planners with
      // the *same* pre-install report so they replan identical lists.
      std::map<StreamId, double> measured;
      const StreamId drifting =
          workload.base_streams[rng.NextUint64() %
                                workload.base_streams.size()];
      measured[drifting] = 5.0 + 20.0 * rng.NextDouble();
      const DriftReport report =
          monitor.Analyze(measured, std::vector<double>(3, 0.5),
                          incremental.admitted_queries());
      Result<std::vector<PlanningStats>> a =
          AdaptiveReplan(&incremental, &catalog, measured, report);
      Result<std::vector<PlanningStats>> b =
          AdaptiveReplan(&scratch, &catalog, measured, report);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
    }

    // Feasibility-identical: both deployments pass the full §III audit
    // and agree on exactly which queries are served.
    ASSERT_TRUE(incremental.deployment().Validate().ok())
        << "seed " << seed << " step " << step;
    ASSERT_TRUE(scratch.deployment().Validate().ok())
        << "seed " << seed << " step " << step;
    const std::set<StreamId> served_a(incremental.admitted_queries().begin(),
                                      incremental.admitted_queries().end());
    const std::set<StreamId> served_b(scratch.admitted_queries().begin(),
                                      scratch.admitted_queries().end());
    ASSERT_EQ(served_a, served_b) << "seed " << seed << " step " << step;
  }
  // The churn must actually exercise the incremental path, or the whole
  // differential is vacuous.
  EXPECT_GT(patched_solves, 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalenceTest,
                         ::testing::Range(0, 4));

/// Warm-started simplex == cold-started simplex on the same model, over
/// randomised LPs (objective equality; the vertex may differ under
/// degeneracy, the value may not).
class WarmSimplexTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmSimplexTest, WarmBasisReachesColdObjective) {
  const uint64_t seed = 0x3a51 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  lp::Model m;
  const int n = 6 + static_cast<int>(rng.NextUint64() % 6);
  for (int v = 0; v < n; ++v) {
    m.AddVariable(0.0, 1.0 + 4.0 * rng.NextDouble(),
                  rng.NextDouble() * 10.0 - 2.0);
  }
  const int rows = 4 + static_cast<int>(rng.NextUint64() % 5);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextDouble() < 0.5) {
        terms.emplace_back(v, rng.NextDouble() * 4.0 - 1.0);
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    m.AddRow(-lp::kInf, 1.0 + 5.0 * rng.NextDouble(), std::move(terms));
  }

  lp::SimplexSolver cold;
  const lp::SimplexResult first = cold.Solve(m);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal) << "seed " << seed;

  lp::SimplexOptions warm_options;
  warm_options.warm_basis = &first.basis_state;
  lp::SimplexSolver warm(warm_options);
  const lp::SimplexResult second = warm.Solve(m);
  ASSERT_EQ(second.status, lp::SolveStatus::kOptimal) << "seed " << seed;
  EXPECT_NEAR(second.objective, first.objective, 1e-7) << "seed " << seed;
  // Restarting at the optimal basis must not need meaningful work.
  EXPECT_LE(second.iterations, first.iterations) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmSimplexTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace sqpr
