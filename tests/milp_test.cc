#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "milp/solver.h"

namespace sqpr {
namespace milp {
namespace {

MipResult Solve(const Model& m, SolverOptions opts = {}) {
  Solver solver;
  return solver.Solve(m, opts);
}

TEST(MilpTest, PureLpPassesThrough) {
  Model m;
  m.AddVariable(0, 4, 1.0, /*is_integer=*/false, "x");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
}

TEST(MilpTest, SingleBinaryKnapsackStyle) {
  // max 3a + 2b st a + b <= 1 (binary): choose a.
  Model m;
  const int a = m.AddBinary(3, "a");
  const int b = m.AddBinary(2, "b");
  m.lp.AddRow(-lp::kInf, 1, {{a, 1}, {b, 1}}, "pick1");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_NEAR(r.x[a], 1.0, 1e-9);
  EXPECT_NEAR(r.x[b], 0.0, 1e-9);
}

TEST(MilpTest, FractionalLpRoundsDownViaBranching) {
  // max x st 2x <= 3, x integer in [0,5] -> x = 1 (LP gives 1.5).
  Model m;
  const int x = m.AddVariable(0, 5, 1, /*is_integer=*/true, "x");
  m.lp.AddRow(-lp::kInf, 3, {{x, 2}}, "cap");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(MilpTest, KnapsackSmall) {
  // Classic: values {10,13,7,8}, weights {3,4,2,3}, cap 7 -> best 23
  // (items 0+1 weight 7).
  Model m;
  const double values[] = {10, 13, 7, 8};
  const double weights[] = {3, 4, 2, 3};
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 4; ++i) {
    const int v = m.AddBinary(values[i]);
    terms.emplace_back(v, weights[i]);
  }
  m.lp.AddRow(-lp::kInf, 7, terms, "weight");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 23.0, 1e-7);
}

TEST(MilpTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 with x integer has no solution.
  Model m;
  const int x = m.AddVariable(0, 1, 1, /*is_integer=*/true, "x");
  m.lp.AddRow(0.4, 0.6, {{x, 1}}, "band");
  EXPECT_EQ(Solve(m).status, MipStatus::kInfeasible);
}

TEST(MilpTest, LpInfeasibleProblem) {
  Model m;
  const int x = m.AddBinary(1, "x");
  m.lp.AddRow(2, lp::kInf, {{x, 1}}, "impossible");
  EXPECT_EQ(Solve(m).status, MipStatus::kInfeasible);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // max y + x, y integer <= 2.5 constraint, x continuous <= 0.5.
  Model m;
  const int y = m.AddVariable(0, 10, 1, /*is_integer=*/true, "y");
  const int x = m.AddVariable(0, 10, 1, /*is_integer=*/false, "x");
  m.lp.AddRow(-lp::kInf, 2.5, {{y, 1}}, "ycap");
  m.lp.AddRow(-lp::kInf, 0.5, {{x, 1}}, "xcap");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[y], 2.0, 1e-9);
  EXPECT_NEAR(r.x[x], 0.5, 1e-7);
}

TEST(MilpTest, EqualityWithBinaries) {
  // a + b + c == 2, max a + 2b + 3c -> b = c = 1.
  Model m;
  const int a = m.AddBinary(1, "a");
  const int b = m.AddBinary(2, "b");
  const int c = m.AddBinary(3, "c");
  m.lp.AddRow(2, 2, {{a, 1}, {b, 1}, {c, 1}}, "exactly2");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-7);
}

TEST(MilpTest, WarmStartAcceptedAsIncumbent) {
  Model m;
  const int a = m.AddBinary(3, "a");
  const int b = m.AddBinary(2, "b");
  m.lp.AddRow(-lp::kInf, 1, {{a, 1}, {b, 1}}, "pick1");
  std::vector<double> warm = {0.0, 1.0};  // feasible, obj 2
  SolverOptions opts;
  opts.warm_start = &warm;
  opts.max_nodes = 0;  // no search at all: only the warm start survives
  auto r = Solve(m, opts);
  ASSERT_TRUE(r.has_solution());
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(MilpTest, InfeasibleWarmStartIgnored) {
  Model m;
  const int a = m.AddBinary(3, "a");
  const int b = m.AddBinary(2, "b");
  m.lp.AddRow(-lp::kInf, 1, {{a, 1}, {b, 1}}, "pick1");
  std::vector<double> warm = {1.0, 1.0};  // violates pick1
  SolverOptions opts;
  opts.warm_start = &warm;
  auto r = Solve(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
}

TEST(MilpTest, NodeLimitReturnsIncumbentAsFeasible) {
  // A problem needing search, capped so tightly it cannot prove optimality
  // but the warm start guarantees a solution is returned.
  Model m;
  std::vector<std::pair<int, double>> terms;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const int v = m.AddBinary(rng.NextDouble(1.0, 3.0));
    terms.emplace_back(v, rng.NextDouble(1.0, 3.0));
  }
  m.lp.AddRow(-lp::kInf, 8, terms, "weight");
  std::vector<double> warm(12, 0.0);  // all-zero is feasible
  SolverOptions opts;
  opts.warm_start = &warm;
  opts.max_nodes = 1;
  // Root cuts plus diving can close this instance inside the single
  // allowed node; switch them off so the limit path is actually taken.
  opts.cuts.enable = false;
  auto r = Solve(m, opts);
  EXPECT_TRUE(r.has_solution());
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_GE(r.best_bound, r.objective - 1e-9);
}

TEST(MilpTest, BestBoundBracketsOptimum) {
  Model m;
  Rng rng(9);
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 10; ++i) {
    const int v = m.AddBinary(rng.NextDouble(1.0, 5.0));
    terms.emplace_back(v, rng.NextDouble(1.0, 4.0));
  }
  m.lp.AddRow(-lp::kInf, 10, terms, "weight");
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.best_bound, r.objective, 1e-6);
  EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok());
}

// ------------------------------------------------ Lazy constraint handler

// Forbids the specific point (1, 1) via a no-good cut, mimicking how the
// SQPR planner adds acyclicity cuts only when a candidate violates them.
class ForbidBothHandler : public LazyConstraintHandler {
 public:
  int AddViolatedCuts(const std::vector<double>& x,
                      lp::Model* relaxation) override {
    if (x[0] > 0.5 && x[1] > 0.5 && !added_) {
      relaxation->AddRow(-lp::kInf, 1, {{0, 1.0}, {1, 1.0}}, "nogood");
      added_ = true;
      return 1;
    }
    return 0;
  }
  bool added() const { return added_; }

 private:
  bool added_ = false;
};

TEST(MilpTest, LazyCutExcludesCandidate) {
  // Unconstrained max a + b would pick (1,1); the lazy handler forbids it,
  // leaving an optimum of 1 picked from either single variable.
  Model m;
  m.AddBinary(1, "a");
  m.AddBinary(1, "b");
  ForbidBothHandler handler;
  SolverOptions opts;
  opts.lazy = &handler;
  auto r = Solve(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_TRUE(handler.added());
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(MilpTest, StaleBasisDiscardedWhenPresolveColumnsDiffer) {
  // Regression: round 1 solves the model with every binary free; round
  // 2 solves the same skeleton with one variable pinned by its bounds
  // (exactly what SQPR's Rebind does to y/x/z between rounds), so
  // presolve eliminates a column it previously kept. Reusing round 1's
  // root basis verbatim would pair basis statuses with the wrong
  // reduced-space columns; the solver must detect the signature
  // mismatch, discard the basis, and still reach the new optimum.
  auto build = [](bool pin_first) {
    Model m;
    const double values[] = {5, 4, 3, 6, 2};
    const double weights[] = {2, 3, 1, 4, 2};
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < 5; ++i) {
      const int v = m.AddBinary(values[i]);
      terms.emplace_back(v, weights[i]);
    }
    if (pin_first) m.lp.SetVariableBounds(0, 1.0, 1.0);
    m.lp.AddRow(-lp::kInf, 6.0, terms, "cap");
    return m;
  };

  Solver solver;
  const Model free_model = build(false);
  const MipResult round1 = solver.Solve(free_model, {});
  ASSERT_EQ(round1.status, MipStatus::kOptimal);
  ASSERT_FALSE(round1.root_basis.empty());

  const Model pinned_model = build(true);
  SolverOptions opts;
  opts.root_warm_basis = &round1.root_basis;
  opts.root_warm_basis_columns = &round1.root_basis_columns;
  const MipResult round2 = solver.Solve(pinned_model, opts);
  ASSERT_EQ(round2.status, MipStatus::kOptimal);
  EXPECT_TRUE(round2.warm_basis_discarded);
  EXPECT_FALSE(round2.used_warm_basis);
  // Cross-check the discarded-basis solve against a cold solve.
  const MipResult cold = solver.Solve(pinned_model, {});
  ASSERT_EQ(cold.status, MipStatus::kOptimal);
  EXPECT_NEAR(round2.objective, cold.objective, 1e-9);
  // And the signature machinery accepts the basis when columns *do*
  // match: re-solving the pinned model with its own harvest warm-starts.
  SolverOptions again;
  again.root_warm_basis = &round2.root_basis;
  again.root_warm_basis_columns = &round2.root_basis_columns;
  const MipResult round3 = solver.Solve(pinned_model, again);
  ASSERT_EQ(round3.status, MipStatus::kOptimal);
  EXPECT_TRUE(round3.used_warm_basis);
  EXPECT_NEAR(round3.objective, cold.objective, 1e-9);
}

TEST(MilpTest, DeadlineZeroStillReturnsWarmStart) {
  Model m;
  const int a = m.AddBinary(1, "a");
  (void)a;
  std::vector<double> warm = {0.0};
  SolverOptions opts;
  opts.warm_start = &warm;
  opts.deadline = Deadline::AfterMillis(0);
  auto r = Solve(m, opts);
  EXPECT_TRUE(r.has_solution());
}

// Distilled from a service replay that aborted on the planner's commit
// audit ("outgoing NIC over budget": 70.000005 used of 70). The LP vertex
// puts b at 0.99999971, inside the integrality tolerance; rounding it to
// 1 breaks the NIC row by 1e-5, far past Deployment::Validate's 1e-6.
// The rounded point must never become the incumbent.
Model NicRoundingModel() {
  Model m;
  const int a = m.AddBinary(1.0, "a");
  const int b = m.AddBinary(1.0, "b");
  m.lp.AddRow(-lp::kInf, 69.99999, {{a, 35.0}, {b, 35.0}}, "nic_out_h1");
  return m;
}

TEST(MilpSnapTest, RoundedIncumbentKeepsRowsWithinAuditTolerance) {
  const Model m = NicRoundingModel();
  for (bool presolve : {false, true}) {
    SolverOptions opts;
    opts.presolve = presolve;
    auto r = Solve(m, opts);
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "presolve " << presolve;
    EXPECT_NEAR(r.objective, 1.0, 1e-9) << "presolve " << presolve;
    EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok()) << "presolve " << presolve;
    EXPECT_GE(r.rejected_candidates, 1) << "presolve " << presolve;
  }
}

TEST(MilpSnapTest, NearIntegralWarmStartRoundingAcrossRowIgnored) {
  const Model m = NicRoundingModel();
  // Feasible and integral within tolerance as given; infeasible rounded.
  std::vector<double> warm = {1.0, 0.9999997};
  ASSERT_TRUE(m.lp.CheckFeasible(warm, 1e-9).ok());
  SolverOptions opts;
  opts.warm_start = &warm;
  opts.max_nodes = 0;  // only the warm start could supply an incumbent
  auto r = Solve(m, opts);
  EXPECT_FALSE(r.has_solution());
}

// The simplex accepts a basic column up to feasibility_tol outside its
// box, so a point SnapFeasible rejects can hold a binary at 1 + 5e-8.
// Splitting at floor/ceil of that value gives a down child equal to the
// node and an up child with lb 2 > ub 1. The split must stay inside the
// column's box. In the three models below every row is 5e-6 away from
// the integer point the LP rounds to.

// The warm root basis makes `a` basic, so the row `100 a = 100.000005`
// puts it at 1 + 5e-8. Its positive cost sends the search into the up
// child first, which used to have crossed bounds.
TEST(MilpSnapTest, RejectedPointAboveItsUpperBoundSplitsInsideTheBox) {
  Model m;
  const int a = m.AddBinary(1.0, "a");
  m.lp.AddRow(100.000005, 100.000005, {{a, 100.0}}, "row");
  const std::vector<lp::BasisState> basis = {lp::BasisState::kBasic,
                                             lp::BasisState::kAtLower};
  const std::vector<int> columns = {a};
  SolverOptions opts;
  opts.presolve = false;  // keep the row in front of the LP
  opts.max_nodes = 1000;
  opts.root_warm_basis = &basis;
  opts.root_warm_basis_columns = &columns;
  const MipResult r = Solve(m, opts);
  ASSERT_TRUE(r.used_warm_basis);
  EXPECT_GE(r.rejected_candidates, 1);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_EQ(r.nodes, 3);  // the root and a = 0, a = 1
}

// Row `a >= z + 5e-8` (scaled by 100). Depending on the sign of a's
// cost, the root LP leaves a above its upper bound or z just below 1,
// and the branches that follow pin columns that sit just outside their
// new bounds. The search must still reach the optimum z = 0, a = 1
// instead of re-solving a child equal to its parent until the node
// limit.
TEST(MilpSnapTest, RejectedPointsOffTheirBoxesKeepTheOptimum) {
  for (double a_obj : {0.5, -1.0}) {
    Model m;
    const int z = m.AddBinary(2.0, "z");
    const int a = m.AddBinary(a_obj, "a");
    m.lp.AddRow(5e-6, lp::kInf, {{a, 100.0}, {z, -100.0}}, "link");
    SolverOptions opts;
    opts.presolve = false;
    opts.max_nodes = 1000;
    const MipResult r = Solve(m, opts);
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "a_obj " << a_obj;
    EXPECT_GE(r.rejected_candidates, 1) << "a_obj " << a_obj;
    EXPECT_LT(r.nodes, 20) << "a_obj " << a_obj;
    EXPECT_NEAR(r.objective, a_obj, 1e-9) << "a_obj " << a_obj;
    EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok()) << "a_obj " << a_obj;
  }
}

// A fixed column cannot be branched on at all. The warm root basis makes
// the fixed `b` basic, so the row `100 b = 99.999995` puts it at
// 1 - 5e-8. The node is dropped: the problem has no integer point.
TEST(MilpSnapTest, RejectedPointOnPinnedColumnIsDropped) {
  Model m;
  const int b = m.AddVariable(1, 1, 1.0, /*is_integer=*/true, "b");
  m.lp.AddRow(99.999995, 99.999995, {{b, 100.0}}, "row");
  const std::vector<lp::BasisState> basis = {lp::BasisState::kBasic,
                                             lp::BasisState::kAtLower};
  const std::vector<int> columns = {b};
  SolverOptions opts;
  opts.presolve = false;
  opts.max_nodes = 1000;
  opts.root_warm_basis = &basis;
  opts.root_warm_basis_columns = &columns;
  const MipResult r = Solve(m, opts);
  ASSERT_TRUE(r.used_warm_basis);
  EXPECT_EQ(r.rejected_candidates, 1);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_EQ(r.nodes, 1);
}

// The whole search runs on one LP engine: the root loads the model and
// starts from the slack basis; every node, dive, lazy-cut and root-cut
// re-solve continues from the basis the previous solve left.
TEST(MilpEngineTest, OnlyTheRootLpStartsFromTheSlackBasis) {
  Rng rng(41);
  Model m;
  std::vector<std::pair<int, double>> cap1, cap2;
  for (int i = 0; i < 14; ++i) {
    const int v = m.AddBinary(rng.NextDouble(1.0, 6.0));
    cap1.emplace_back(v, rng.NextDouble(1.0, 5.0));
    cap2.emplace_back(v, rng.NextDouble(1.0, 5.0));
  }
  m.lp.AddRow(-lp::kInf, 13.5, cap1, "cap1");
  m.lp.AddRow(-lp::kInf, 11.5, cap2, "cap2");
  const MipResult r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_GT(r.nodes, 1);
  EXPECT_GT(r.lp_counters.solves, r.nodes);  // dive and cut rounds too
  EXPECT_EQ(r.lp_counters.slack_starts, 1);
  // Factorizations: the one at load plus one per refactor_interval pivots.
  EXPECT_LE(r.lp_counters.factorizations,
            1 + r.lp_counters.iterations /
                    SolverOptions{}.lp_options.refactor_interval);

  // A seeded root basis means no solve starts from the slack basis.
  SolverOptions warm;
  warm.root_warm_basis = &r.root_basis;
  warm.root_warm_basis_columns = &r.root_basis_columns;
  const MipResult again = Solve(m, warm);
  ASSERT_TRUE(again.used_warm_basis);
  EXPECT_EQ(again.lp_counters.slack_starts, 0);
  EXPECT_NEAR(again.objective, r.objective, 1e-7);
}

// ------------------------------------- Randomised exhaustive cross-check

struct RandomMipCase {
  int num_vars;
  int num_rows;
  uint64_t seed;
};

class RandomBinaryMipTest : public ::testing::TestWithParam<RandomMipCase> {};

// Brute-force enumeration over all 2^n binary points must agree with
// branch-and-bound on both feasibility and the optimal objective.
TEST_P(RandomBinaryMipTest, MatchesBruteForce) {
  const RandomMipCase& tc = GetParam();
  Rng rng(tc.seed);
  Model m;
  for (int v = 0; v < tc.num_vars; ++v) {
    m.AddBinary(rng.NextDouble(-2.0, 5.0));
  }
  for (int r = 0; r < tc.num_rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < tc.num_vars; ++v) {
      if (rng.NextBool(0.5)) terms.emplace_back(v, rng.NextDouble(-1.0, 3.0));
    }
    if (terms.empty()) continue;
    m.lp.AddRow(-lp::kInf, rng.NextDouble(1.0, 5.0), std::move(terms));
  }

  // Brute force.
  double best = -lp::kInf;
  for (int mask = 0; mask < (1 << tc.num_vars); ++mask) {
    std::vector<double> x(tc.num_vars);
    for (int v = 0; v < tc.num_vars; ++v) x[v] = (mask >> v) & 1;
    if (m.lp.CheckFeasible(x, 1e-9).ok()) {
      best = std::max(best, m.lp.ObjectiveValue(x));
    }
  }

  auto r = Solve(m);
  if (best == -lp::kInf) {
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "seed " << tc.seed;
  } else {
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "seed " << tc.seed;
    EXPECT_NEAR(r.objective, best, 1e-6) << "seed " << tc.seed;
    EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok()) << "seed " << tc.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomBinaryMipTest,
    ::testing::Values(RandomMipCase{4, 2, 21}, RandomMipCase{6, 3, 22},
                      RandomMipCase{8, 4, 23}, RandomMipCase{10, 5, 24},
                      RandomMipCase{12, 6, 25}, RandomMipCase{12, 2, 26},
                      RandomMipCase{14, 7, 27}, RandomMipCase{10, 12, 28},
                      RandomMipCase{8, 1, 29}, RandomMipCase{15, 8, 30}));

// Randomised mixed problems with equality rows through a known integral
// point: B&B must find a solution at least as good as that point.
class RandomMixedMipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMixedMipTest, BeatsConstructedFeasiblePoint) {
  Rng rng(GetParam());
  Model m;
  const int n = 10;
  std::vector<double> ref(n);
  for (int v = 0; v < n; ++v) {
    const bool is_int = rng.NextBool(0.6);
    m.AddVariable(0, 3, rng.NextDouble(-1.0, 2.0), is_int);
    ref[v] = is_int ? static_cast<double>(rng.NextInt(0, 3))
                    : rng.NextDouble(0.0, 3.0);
  }
  for (int r = 0; r < 5; ++r) {
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.4)) {
        const double coef = rng.NextDouble(0.2, 2.0);
        terms.emplace_back(v, coef);
        activity += coef * ref[v];
      }
    }
    if (terms.empty()) continue;
    m.lp.AddRow(-lp::kInf, activity + rng.NextDouble(0.0, 2.0),
                std::move(terms));
  }
  auto r = Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal) << "seed " << GetParam();
  EXPECT_GE(r.objective, m.lp.ObjectiveValue(ref) - 1e-6)
      << "seed " << GetParam();
  EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMixedMipTest,
                         ::testing::Range<uint64_t>(200, 215));

}  // namespace
}  // namespace milp
}  // namespace sqpr

namespace sqpr {
namespace milp {
namespace {

TEST(MilpBranchPriorityTest, HighPriorityVariablePlacedFirst) {
  // Priorities do not change the optimum, only the search order; verify
  // correctness is preserved with mixed priorities.
  Model m;
  Rng rng(31);
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 10; ++i) {
    const int v = m.AddVariable(0, 1, rng.NextDouble(1.0, 3.0), true, "",
                                /*priority=*/i % 3);
    terms.emplace_back(v, rng.NextDouble(1.0, 2.0));
  }
  m.lp.AddRow(-lp::kInf, 6, terms, "cap");
  Solver solver;
  auto with_priorities = solver.Solve(m, {});
  ASSERT_EQ(with_priorities.status, MipStatus::kOptimal);

  Model flat = m;
  std::fill(flat.branch_priority.begin(), flat.branch_priority.end(), 0);
  auto without = solver.Solve(flat, {});
  ASSERT_EQ(without.status, MipStatus::kOptimal);
  EXPECT_NEAR(with_priorities.objective, without.objective, 1e-6);
}

// Fractional-cut handler: forbids x0 + x1 >= 1.5 via cuts generated on
// fractional points, mimicking SQPR's fractional cycle separation.
class FractionalCutter : public LazyConstraintHandler {
 public:
  int AddViolatedCuts(const std::vector<double>&, lp::Model*) override {
    return 0;
  }
  int AddFractionalCuts(const std::vector<double>& x,
                        lp::Model* relaxation) override {
    if (added_ || x[0] + x[1] <= 1.0 + 1e-6) return 0;
    relaxation->AddRow(-lp::kInf, 1.0, {{0, 1.0}, {1, 1.0}}, "fcut");
    added_ = true;
    return 1;
  }
  bool added() const { return added_; }

 private:
  bool added_ = false;
};

TEST(MilpFractionalCutTest, CutsApplyDuringSearch) {
  Model m;
  m.AddBinary(1, "a");
  m.AddBinary(1, "b");
  // LP optimum is (1,1); the fractional cutter caps the pair sum at 1.
  FractionalCutter handler;
  SolverOptions options;
  options.lazy = &handler;
  Solver solver;
  auto r = solver.Solve(m, options);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_TRUE(handler.added());
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(MilpDivingTest, FindsIncumbentOnFirstNode) {
  // A pure covering problem the dive solves without branching: pick at
  // least one of each pair.
  Model m;
  Rng rng(17);
  for (int i = 0; i < 12; ++i) m.AddBinary(-rng.NextDouble(1.0, 2.0));
  for (int i = 0; i < 12; i += 2) {
    m.lp.AddRow(1, lp::kInf,
                {{i, 1.0}, {i + 1, 1.0}}, "pair" + std::to_string(i));
  }
  Solver solver;
  auto r = solver.Solve(m, {});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok());
  // Optimal picks exactly the cheaper element of each pair.
  int picked = 0;
  for (double v : r.x) picked += v > 0.5;
  EXPECT_EQ(picked, 6);
}

}  // namespace
}  // namespace milp
}  // namespace sqpr
