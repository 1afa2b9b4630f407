#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sqpr {
namespace lp {
namespace {

SimplexResult Solve(const Model& m) {
  SimplexSolver solver;
  return solver.Solve(m);
}

// ------------------------------------------------------------- Model API

TEST(LpModelTest, MergesDuplicateRowTerms) {
  Model m;
  const int x = m.AddVariable(0, 10, 1, "x");
  const int r = m.AddRow(0, 5, {{x, 1.0}, {x, 2.0}}, "r");
  ASSERT_EQ(m.row_terms(r).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row_terms(r)[0].second, 3.0);
}

TEST(LpModelTest, DropsZeroCoefficients) {
  Model m;
  const int x = m.AddVariable(0, 1, 0, "x");
  const int y = m.AddVariable(0, 1, 0, "y");
  const int r = m.AddRow(0, 1, {{x, 0.0}, {y, 2.0}}, "r");
  ASSERT_EQ(m.row_terms(r).size(), 1u);
  EXPECT_EQ(m.row_terms(r)[0].first, y);
}

TEST(LpModelTest, CheckFeasibleDetectsRowViolation) {
  Model m;
  const int x = m.AddVariable(0, 10, 0, "x");
  m.AddRow(0, 3, {{x, 1.0}}, "cap");
  EXPECT_TRUE(m.CheckFeasible({2.0}, 1e-9).ok());
  EXPECT_FALSE(m.CheckFeasible({4.0}, 1e-9).ok());
}

TEST(LpModelTest, CheckFeasibleDetectsBoundViolation) {
  Model m;
  m.AddVariable(1, 2, 0, "x");
  EXPECT_FALSE(m.CheckFeasible({0.0}, 1e-9).ok());
}

TEST(LpModelTest, ObjectiveValue) {
  Model m;
  m.AddVariable(0, 1, 3, "x");
  m.AddVariable(0, 1, -2, "y");
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({1.0, 0.5}), 2.0);
}

// ----------------------------------------------------------- Basic LPs

TEST(SimplexTest, TrivialBoundedMaximum) {
  // max x s.t. x in [0, 4]: optimum at the upper bound, no rows at all.
  Model m(Sense::kMaximize);
  m.AddVariable(0, 4, 1, "x");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-8);
}

TEST(SimplexTest, TwoVariableTextbook) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), obj 36.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, kInf, 3, "x");
  const int y = m.AddVariable(0, kInf, 5, "y");
  m.AddRow(-kInf, 4, {{x, 1}}, "r1");
  m.AddRow(-kInf, 12, {{y, 2}}, "r2");
  m.AddRow(-kInf, 18, {{x, 3}, {y, 2}}, "r3");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.values[x], 2.0, 1e-7);
  EXPECT_NEAR(r.values[y], 6.0, 1e-7);
}

TEST(SimplexTest, Minimization) {
  // min x + y s.t. x + y >= 2, x,y >= 0 -> obj 2.
  Model m(Sense::kMinimize);
  const int x = m.AddVariable(0, kInf, 1, "x");
  const int y = m.AddVariable(0, kInf, 1, "y");
  m.AddRow(2, kInf, {{x, 1}, {y, 1}}, "cover");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x + 2y s.t. x + y == 3, x,y in [0, 2] -> (1, 2), obj 5.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 2, 1, "x");
  const int y = m.AddVariable(0, 2, 2, "y");
  m.AddRow(3, 3, {{x, 1}, {y, 1}}, "eq");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-7);
  EXPECT_NEAR(r.values[x], 1.0, 1e-7);
  EXPECT_NEAR(r.values[y], 2.0, 1e-7);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, kInf, 1, "x");
  m.AddRow(-kInf, 1, {{x, 1}}, "le");
  m.AddRow(2, kInf, {{x, 1}}, "ge");
  EXPECT_EQ(Solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleBoundsVsRow) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 1, 1, "x");
  const int y = m.AddVariable(0, 1, 1, "y");
  m.AddRow(3, kInf, {{x, 1}, {y, 1}}, "need3");
  EXPECT_EQ(Solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m(Sense::kMaximize);
  m.AddVariable(0, kInf, 1, "x");
  EXPECT_EQ(Solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, UnboundedThroughRow) {
  // max x - y with x - y free to grow along the ray (t, t) ... constrain
  // x - y <= 5 is *not* added; the row x + 0y <= inf keeps it unbounded.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, kInf, 1, "x");
  const int y = m.AddVariable(0, kInf, -1, "y");
  m.AddRow(-kInf, kInf, {{x, 1}, {y, 1}}, "loose");
  EXPECT_EQ(Solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, FixedVariableRespected) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(2, 2, 1, "x");  // fixed
  const int y = m.AddVariable(0, kInf, 1, "y");
  m.AddRow(-kInf, 5, {{x, 1}, {y, 1}}, "cap");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.values[x], 2.0, 1e-9);
  EXPECT_NEAR(r.values[y], 3.0, 1e-7);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x s.t. x >= -3 -> -3.
  Model m(Sense::kMinimize);
  m.AddVariable(-3, 10, 1, "x");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-8);
}

TEST(SimplexTest, FreeVariable) {
  // min x + y, x free, y >= 0, x + y >= 1, x >= -4 via row.
  Model m(Sense::kMinimize);
  const int x = m.AddVariable(-kInf, kInf, 1, "x");
  const int y = m.AddVariable(0, kInf, 1, "y");
  m.AddRow(1, kInf, {{x, 1}, {y, 1}}, "cover");
  m.AddRow(-4, kInf, {{x, 1}}, "xlb");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(SimplexTest, DegenerateVertexStillSolves) {
  // Multiple redundant constraints through the optimum.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, kInf, 1, "x");
  const int y = m.AddVariable(0, kInf, 1, "y");
  m.AddRow(-kInf, 4, {{x, 1}, {y, 1}}, "a");
  m.AddRow(-kInf, 4, {{x, 1}, {y, 1}}, "b");  // duplicate
  m.AddRow(-kInf, 8, {{x, 2}, {y, 2}}, "c");  // scaled duplicate
  m.AddRow(-kInf, 4, {{x, 1}}, "d");
  m.AddRow(-kInf, 4, {{y, 1}}, "e");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
}

TEST(SimplexTest, RangeRow) {
  // 1 <= x + y <= 2, max x + 2y with x,y in [0,2] -> y=2 infeasible (sum
  // cap), optimum y=2,x=0 -> sum=2 OK, obj 4.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 2, 1, "x");
  const int y = m.AddVariable(0, 2, 2, "y");
  m.AddRow(1, 2, {{x, 1}, {y, 1}}, "range");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.values[y], 2.0, 1e-7);
}

TEST(SimplexTest, RangeRowLowerSideActive) {
  // min x + y s.t. 2 <= x + y <= 5 -> obj 2.
  Model m(Sense::kMinimize);
  const int x = m.AddVariable(0, kInf, 1, "x");
  const int y = m.AddVariable(0, kInf, 1, "y");
  m.AddRow(2, 5, {{x, 1}, {y, 1}}, "range");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(SimplexTest, SolutionSatisfiesModel) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 3, 2, "x");
  const int y = m.AddVariable(0, 3, 1, "y");
  const int z = m.AddVariable(0, 3, 3, "z");
  m.AddRow(-kInf, 6, {{x, 1}, {y, 2}, {z, 1}}, "a");
  m.AddRow(-kInf, 5, {{x, 1}, {y, 1}, {z, 2}}, "b");
  m.AddRow(1, kInf, {{x, 1}, {y, 1}}, "c");
  auto r = Solve(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.CheckFeasible(r.values, 1e-6).ok());
}

// --------------------------------------------- Randomised property sweep

struct RandomLpCase {
  int num_vars;
  int num_rows;
  uint64_t seed;
};

class RandomLpTest : public ::testing::TestWithParam<RandomLpCase> {};

// Every randomly generated *feasible-by-construction* LP must (a) solve to
// Optimal, (b) produce a solution that satisfies the model, and (c) reach
// an objective at least as good as the known feasible reference point.
TEST_P(RandomLpTest, OptimalBeatsReferencePoint) {
  const RandomLpCase& tc = GetParam();
  Rng rng(tc.seed);
  Model m(Sense::kMaximize);

  // Reference point drawn inside the box; rows are built around it so the
  // LP is feasible by construction.
  std::vector<double> ref(tc.num_vars);
  for (int v = 0; v < tc.num_vars; ++v) {
    const double ub = rng.NextDouble(1.0, 10.0);
    m.AddVariable(0.0, ub, rng.NextDouble(-1.0, 2.0));
    ref[v] = rng.NextDouble(0.0, ub);
  }
  for (int r = 0; r < tc.num_rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (int v = 0; v < tc.num_vars; ++v) {
      if (rng.NextBool(0.4)) {
        const double coef = rng.NextDouble(-2.0, 3.0);
        terms.emplace_back(v, coef);
        activity += coef * ref[v];
      }
    }
    if (terms.empty()) continue;
    const double slackness = rng.NextDouble(0.0, 4.0);
    m.AddRow(-kInf, activity + slackness, std::move(terms));
  }

  auto result = Solve(m);
  ASSERT_EQ(result.status, SolveStatus::kOptimal) << "seed " << tc.seed;
  EXPECT_TRUE(m.CheckFeasible(result.values, 1e-5).ok()) << "seed " << tc.seed;
  EXPECT_GE(result.objective, m.ObjectiveValue(ref) - 1e-6)
      << "seed " << tc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLpTest,
    ::testing::Values(RandomLpCase{3, 2, 1}, RandomLpCase{5, 4, 2},
                      RandomLpCase{8, 6, 3}, RandomLpCase{12, 10, 4},
                      RandomLpCase{20, 15, 5}, RandomLpCase{20, 30, 6},
                      RandomLpCase{40, 25, 7}, RandomLpCase{60, 40, 8},
                      RandomLpCase{6, 12, 9}, RandomLpCase{30, 30, 10},
                      RandomLpCase{50, 10, 11}, RandomLpCase{10, 50, 12}));

// Randomised equality-constrained LPs exercise phase 1 artificials.
class RandomEqualityLpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEqualityLpTest, PhaseOneFindsFeasiblePoint) {
  Rng rng(GetParam());
  const int n = 8;
  Model m(Sense::kMinimize);
  std::vector<double> ref(n);
  for (int v = 0; v < n; ++v) {
    m.AddVariable(0.0, 5.0, rng.NextDouble(0.0, 1.0));
    ref[v] = rng.NextDouble(0.5, 4.5);
  }
  for (int r = 0; r < 4; ++r) {
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.5)) {
        const double coef = rng.NextDouble(0.5, 2.0);
        terms.emplace_back(v, coef);
        activity += coef * ref[v];
      }
    }
    if (terms.empty()) continue;
    m.AddRow(activity, activity, std::move(terms));  // equality through ref
  }
  auto result = Solve(m);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.CheckFeasible(result.values, 1e-5).ok());
  EXPECT_LE(result.objective, m.ObjectiveValue(ref) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomEqualityLpTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace lp
}  // namespace sqpr

namespace sqpr {
namespace lp {
namespace {

// ------------------------------------------- Warm (hot) engine re-solves

// A SimplexEngine keeps its basis between solves; a re-solve starts from
// wherever the previous solve left it.

TEST(WarmStartTest, ReusingOptimalBasisConvergesInstantly) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, kInf, 3, "x");
  const int y = m.AddVariable(0, kInf, 5, "y");
  m.AddRow(-kInf, 4, {{x, 1}}, "r1");
  m.AddRow(-kInf, 12, {{y, 2}}, "r2");
  m.AddRow(-kInf, 18, {{x, 3}, {y, 2}}, "r3");
  SimplexEngine engine;
  auto first = engine.Solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  auto second = engine.Solve(m);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.objective, first.objective, 1e-9);
  EXPECT_LE(second.iterations, 2);  // already optimal
}

TEST(WarmStartTest, BoundChangeResolvesInFewIterations) {
  // Simulates a branch-and-bound child: solve, tighten one variable,
  // re-solve from the parent basis.
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 10, 2, "x");
  const int y = m.AddVariable(0, 10, 1, "y");
  m.AddRow(-kInf, 12, {{x, 1}, {y, 1}}, "cap");
  SimplexEngine engine;
  auto first = engine.Solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 22.0, 1e-7);  // x=10, y=2

  m.SetVariableBounds(x, 0, 5);  // branch: x <= 5
  auto second = engine.Solve(m);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.objective, 17.0, 1e-7);  // x=5, y=7
  EXPECT_TRUE(m.CheckFeasible(second.values, 1e-6).ok());
  EXPECT_LE(second.iterations, 2);
}

TEST(WarmStartTest, WarmBasisWithAddedRowsPadsSlacks) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 10, 1, "x");
  const int y = m.AddVariable(0, 10, 1, "y");
  m.AddRow(-kInf, 8, {{x, 1}, {y, 1}}, "cap");
  SimplexEngine engine;
  auto first = engine.Solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  // Add a cut after the fact (lazy-constraint pattern): its slack joins
  // the basis.
  m.AddRow(-kInf, 3, {{x, 1}}, "cut");
  auto second = engine.Solve(m);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.objective, 8.0, 1e-7);  // x=3, y=5
  EXPECT_TRUE(m.CheckFeasible(second.values, 1e-6).ok());
  EXPECT_EQ(engine.counters().slack_starts, 1);
}

TEST(WarmStartTest, InfeasibleAfterBranchDetected) {
  Model m(Sense::kMaximize);
  const int x = m.AddVariable(0, 10, 1, "x");
  m.AddRow(4, kInf, {{x, 1}}, "ge4");
  SimplexEngine engine;
  auto first = engine.Solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  m.SetVariableBounds(x, 0, 2);  // conflicts with x >= 4
  EXPECT_EQ(engine.Solve(m).status, SolveStatus::kInfeasible);
}

// Randomised: hot re-solves after a bound change must agree with cold
// solves on the same modified model.
class WarmColdAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdAgreementTest, SameOptimum) {
  Rng rng(GetParam());
  Model m(Sense::kMaximize);
  const int n = 12;
  std::vector<double> ref(n);
  for (int v = 0; v < n; ++v) {
    m.AddVariable(0.0, 4.0, rng.NextDouble(-1.0, 2.0));
    ref[v] = rng.NextDouble(0.0, 4.0);
  }
  for (int r = 0; r < 8; ++r) {
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.4)) {
        const double coef = rng.NextDouble(0.1, 2.0);
        terms.emplace_back(v, coef);
        activity += coef * ref[v];
      }
    }
    if (terms.empty()) continue;
    m.AddRow(-kInf, activity + rng.NextDouble(0.0, 2.0), std::move(terms));
  }
  SimplexEngine warm;
  auto base = warm.Solve(m);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  // Tighten a random variable's upper bound below its current value.
  const int victim = static_cast<int>(rng.NextBounded(n));
  m.SetVariableBounds(victim, 0.0, base.values[victim] / 2.0);

  auto cold_again = SimplexSolver().Solve(m);
  auto warm_again = warm.Solve(m);
  ASSERT_EQ(cold_again.status, SolveStatus::kOptimal);
  ASSERT_EQ(warm_again.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm_again.objective, cold_again.objective, 1e-5)
      << "seed " << GetParam();
  EXPECT_TRUE(m.CheckFeasible(warm_again.values, 1e-5).ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, WarmColdAgreementTest,
                         ::testing::Range<uint64_t>(300, 315));

}  // namespace
}  // namespace lp
}  // namespace sqpr
