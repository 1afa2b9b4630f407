#include "milp/presolve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "milp/solver.h"

namespace sqpr {
namespace milp {
namespace {

TEST(PresolveTest, FixedColumnsAreRemovedAndFolded) {
  // x pinned at 2 contributes 2 to the row and 6 to the objective.
  Model m;
  const int x = m.AddVariable(2, 2, 3, /*is_integer=*/false, "x");
  const int y = m.AddVariable(0, 10, 1, /*is_integer=*/false, "y");
  m.lp.AddRow(-lp::kInf, 7, {{x, 1}, {y, 1}}, "cap");

  Presolver pre;
  const PresolveStats stats = pre.Apply(m);
  ASSERT_FALSE(stats.proven_infeasible);
  EXPECT_EQ(stats.fixed_columns, 1);
  EXPECT_EQ(pre.reduced().lp.num_variables(), 1);
  EXPECT_DOUBLE_EQ(pre.objective_constant(), 6.0);
  // Propagation folds the pinned 2 into y's bound (y <= 5), after which
  // the row is redundant and dropped entirely.
  EXPECT_EQ(pre.reduced().lp.num_rows(), 0);
  EXPECT_DOUBLE_EQ(pre.reduced().lp.variable_ub(0), 5.0);

  std::vector<double> full;
  pre.Postsolve({4.0}, &full);
  EXPECT_DOUBLE_EQ(full[x], 2.0);
  EXPECT_DOUBLE_EQ(full[y], 4.0);
}

TEST(PresolveTest, SingletonRowBecomesBound) {
  Model m;
  const int x = m.AddVariable(0, 100, 1, /*is_integer=*/false, "x");
  m.lp.AddRow(-lp::kInf, 9, {{x, 3}}, "cap");  // x <= 3

  Presolver pre;
  const PresolveStats stats = pre.Apply(m);
  ASSERT_FALSE(stats.proven_infeasible);
  EXPECT_EQ(stats.singleton_rows, 1);
  EXPECT_EQ(pre.reduced().lp.num_rows(), 0);
  ASSERT_EQ(pre.reduced().lp.num_variables(), 1);
  EXPECT_DOUBLE_EQ(pre.reduced().lp.variable_ub(0), 3.0);
}

TEST(PresolveTest, NegativeCoefficientSingleton) {
  Model m;
  const int x = m.AddVariable(-50, 50, 1, /*is_integer=*/false, "x");
  m.lp.AddRow(-6, lp::kInf, {{x, -2}}, "floor");  // -2x >= -6 -> x <= 3

  Presolver pre;
  ASSERT_FALSE(pre.Apply(m).proven_infeasible);
  ASSERT_EQ(pre.reduced().lp.num_variables(), 1);
  EXPECT_DOUBLE_EQ(pre.reduced().lp.variable_ub(0), 3.0);
  EXPECT_DOUBLE_EQ(pre.reduced().lp.variable_lb(0), -50.0);
}

TEST(PresolveTest, IntegerBandWithNoLatticePointIsInfeasible) {
  Model m;
  const int x = m.AddVariable(0, 1, 1, /*is_integer=*/true, "x");
  m.lp.AddRow(0.4, 0.6, {{x, 1}}, "band");
  Presolver pre;
  EXPECT_TRUE(pre.Apply(m).proven_infeasible);
}

TEST(PresolveTest, IntegerBoundsRoundInwardAndPin) {
  // 0.3 <= x <= 1.7 integral -> x in {1}; pinned.
  Model m;
  const int x = m.AddVariable(0.3, 1.7, 5, /*is_integer=*/true, "x");
  (void)x;
  Presolver pre;
  const PresolveStats stats = pre.Apply(m);
  ASSERT_FALSE(stats.proven_infeasible);
  EXPECT_EQ(stats.fixed_columns, 1);
  EXPECT_DOUBLE_EQ(pre.objective_constant(), 5.0);
  EXPECT_EQ(pre.reduced().lp.num_variables(), 0);
}

TEST(PresolveTest, ActivityPropagationTightensAndCascades) {
  // Binary chain: a + b <= 1 with a pinned to 1 forces b = 0, which in
  // turn satisfies b + c <= 1 trivially (row removed), leaving only c.
  Model m;
  const int a = m.AddVariable(1, 1, 0, /*is_integer=*/true, "a");
  const int b = m.AddBinary(1, "b");
  const int c = m.AddBinary(1, "c");
  m.lp.AddRow(-lp::kInf, 1, {{a, 1}, {b, 1}}, "ab");
  m.lp.AddRow(-lp::kInf, 1, {{b, 1}, {c, 1}}, "bc");

  Presolver pre;
  const PresolveStats stats = pre.Apply(m);
  ASSERT_FALSE(stats.proven_infeasible);
  EXPECT_EQ(stats.fixed_columns, 2);  // a (input) and b (propagated)
  ASSERT_EQ(pre.reduced().lp.num_variables(), 1);
  EXPECT_EQ(pre.reduced().lp.num_rows(), 0);
  std::vector<double> full;
  pre.Postsolve({1.0}, &full);
  EXPECT_DOUBLE_EQ(full[a], 1.0);
  EXPECT_DOUBLE_EQ(full[b], 0.0);
  EXPECT_DOUBLE_EQ(full[c], 1.0);
}

TEST(PresolveTest, RowInfeasibleFromActivityBounds) {
  Model m;
  const int x = m.AddBinary(1, "x");
  const int y = m.AddBinary(1, "y");
  m.lp.AddRow(3, lp::kInf, {{x, 1}, {y, 1}}, "impossible");
  Presolver pre;
  EXPECT_TRUE(pre.Apply(m).proven_infeasible);
}

TEST(PresolveTest, ProjectToReducedRejectsPinnedDisagreement) {
  Model m;
  const int x = m.AddVariable(2, 2, 0, /*is_integer=*/false, "x");
  const int y = m.AddVariable(0, 5, 1, /*is_integer=*/false, "y");
  (void)x;
  (void)y;
  Presolver pre;
  ASSERT_FALSE(pre.Apply(m).proven_infeasible);
  std::vector<double> reduced;
  EXPECT_TRUE(pre.ProjectToReduced({2.0, 3.0}, &reduced));
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_DOUBLE_EQ(reduced[0], 3.0);
  EXPECT_FALSE(pre.ProjectToReduced({1.0, 3.0}, &reduced));
}

TEST(PresolveTest, TranslateRowFoldsPinnedTerms) {
  Model m;
  const int x = m.AddVariable(3, 3, 0, /*is_integer=*/false, "x");
  const int y = m.AddVariable(0, 5, 1, /*is_integer=*/false, "y");
  Presolver pre;
  ASSERT_FALSE(pre.Apply(m).proven_infeasible);

  std::vector<std::pair<int, double>> reduced_terms;
  double lb, ub;
  pre.TranslateRow({{x, 2.0}, {y, 1.0}}, 4.0, 10.0, &reduced_terms, &lb, &ub);
  ASSERT_EQ(reduced_terms.size(), 1u);
  EXPECT_EQ(reduced_terms[0].first, pre.column_map(y));
  EXPECT_DOUBLE_EQ(lb, -2.0);  // 4 - 2*3
  EXPECT_DOUBLE_EQ(ub, 4.0);   // 10 - 2*3
}

// ---------------------------------------------------------------------
// Property sweep: presolve must never change the optimal objective.
// Random binary knapsack/covering mixes, with a slice of variables
// pre-pinned the way SQPR's §IV-A reduction pins out-of-closure
// decisions.
// ---------------------------------------------------------------------

class PresolveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PresolveEquivalence, SameOptimumWithAndWithoutPresolve) {
  Rng rng(0x9e3779b9u + static_cast<uint64_t>(GetParam()));
  Model m;
  const int n = 6 + static_cast<int>(rng.NextUint64() % 6);  // 6..11 vars
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    const double obj = 1.0 + 9.0 * rng.NextDouble();
    const int v = m.AddBinary(obj);
    vars.push_back(v);
    if (rng.NextDouble() < 0.3) {
      // Pin ~30% of columns like the planner's variable fixing does.
      const double val = rng.NextDouble() < 0.5 ? 0.0 : 1.0;
      m.lp.SetVariableBounds(v, val, val);
    }
  }
  const int rows = 3 + static_cast<int>(rng.NextUint64() % 4);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v : vars) {
      if (rng.NextDouble() < 0.5) {
        terms.emplace_back(v, 1.0 + 4.0 * rng.NextDouble());
      }
    }
    if (terms.empty()) continue;
    double cap = 0.0;
    for (const auto& [v, a] : terms) cap += a;
    if (rng.NextDouble() < 0.7) {
      m.lp.AddRow(-lp::kInf, 0.6 * cap, terms, "knap");
    } else {
      m.lp.AddRow(0.2 * cap, lp::kInf, terms, "cover");
    }
  }

  SolverOptions with, without;
  with.presolve = true;
  without.presolve = false;
  Solver solver;
  const MipResult a = solver.Solve(m, with);
  const MipResult b = solver.Solve(m, without);
  ASSERT_EQ(a.status, b.status) << "instance " << GetParam();
  if (a.has_solution()) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "instance " << GetParam();
    EXPECT_TRUE(m.lp.CheckFeasible(a.x, 1e-6).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PresolveEquivalence,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace milp
}  // namespace sqpr
