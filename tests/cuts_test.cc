#include "milp/cuts.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lp/simplex.h"
#include "milp/solver.h"

namespace sqpr {
namespace milp {
namespace {

lp::SimplexResult SolveLp(const lp::Model& m) {
  lp::SimplexSolver solver;
  return solver.Solve(m);
}

/// Enumerates all 0/1 assignments of `m` (over binary columns) and
/// returns the integer-feasible ones. Only usable for small n.
std::vector<std::vector<double>> EnumerateBinaryFeasible(const lp::Model& m) {
  const int n = m.num_variables();
  std::vector<std::vector<double>> feasible;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1;
    bool in_bounds = true;
    for (int v = 0; v < n && in_bounds; ++v) {
      in_bounds = x[v] >= m.variable_lb(v) - 1e-9 &&
                  x[v] <= m.variable_ub(v) + 1e-9;
    }
    if (in_bounds && m.CheckFeasible(x, 1e-9).ok()) feasible.push_back(x);
  }
  return feasible;
}

TEST(CoverCutTest, SeparatesViolatedCover) {
  // 3 items of weight 2 into capacity 3: LP packs x = (0.75, 0.75, 0.75)
  // under max sum; any two items overflow, so the cover cut is
  // x0 + x1 + x2 <= 1.
  Model m;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 3; ++i) terms.emplace_back(m.AddBinary(1.0), 2.0);
  m.lp.AddRow(-lp::kInf, 3.0, terms, "knap");

  lp::Model work = m.lp;
  const lp::SimplexResult rel = SolveLp(work);
  ASSERT_EQ(rel.status, lp::SolveStatus::kOptimal);

  CutOptions opts;
  CutGenerator cg(m.integer, opts);
  const int before = work.num_rows();
  EXPECT_GT(cg.Separate(rel.values, &work), 0);
  ASSERT_GT(work.num_rows(), before);
  // The added row must cut the fractional point but keep every integer
  // feasible assignment.
  EXPECT_FALSE(work.CheckFeasible(rel.values, 1e-7).ok());
  for (const auto& x : EnumerateBinaryFeasible(m.lp)) {
    EXPECT_TRUE(work.CheckFeasible(x, 1e-7).ok());
  }
}

TEST(CoverCutTest, HandlesGeqRowsByNegation) {
  // -2x0 - 2x1 - 2x2 >= -3 is the same knapsack written as a >= row.
  Model m;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 3; ++i) terms.emplace_back(m.AddBinary(1.0), -2.0);
  m.lp.AddRow(-3.0, lp::kInf, terms, "neg_knap");

  lp::Model work = m.lp;
  const lp::SimplexResult rel = SolveLp(work);
  ASSERT_EQ(rel.status, lp::SolveStatus::kOptimal);

  CutOptions opts;
  CutGenerator cg(m.integer, opts);
  EXPECT_GT(cg.Separate(rel.values, &work), 0);
  for (const auto& x : EnumerateBinaryFeasible(m.lp)) {
    EXPECT_TRUE(work.CheckFeasible(x, 1e-7).ok());
  }
}

TEST(CoverCutTest, SkipsRowsWithContinuousColumns) {
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddVariable(0, 1, 1.0, /*is_integer=*/false, "y");
  m.lp.AddRow(-lp::kInf, 1.5, {{x, 1.0}, {y, 1.0}}, "mixed");

  lp::Model work = m.lp;
  const lp::SimplexResult rel = SolveLp(work);
  ASSERT_EQ(rel.status, lp::SolveStatus::kOptimal);
  CutOptions opts;
  CutGenerator cg(m.integer, opts);
  // Cover separation must refuse rows containing continuous columns —
  // the cover argument only holds over pure binaries.
  EXPECT_EQ(cg.Separate(rel.values, &work), 0);
}

// ---------------------------------------------------------------------
// End-to-end: the solver with cuts enabled must agree with the solver
// with cuts disabled on random mixed instances.
// ---------------------------------------------------------------------

class CutsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CutsEquivalence, SameOptimumWithAndWithoutCuts) {
  Rng rng(0xabcdef + static_cast<uint64_t>(GetParam()));
  Model m;
  const int n = 6 + static_cast<int>(rng.NextUint64() % 5);
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(m.AddBinary(1.0 + 9.0 * rng.NextDouble()));
  }
  // One continuous coupling column like SQPR's potentials.
  const int p = m.AddVariable(0, 10, -0.1, /*is_integer=*/false, "p");
  const int rows = 2 + static_cast<int>(rng.NextUint64() % 3);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    double cap = 0.0;
    for (int v : vars) {
      if (rng.NextDouble() < 0.6) {
        const double a = 1.0 + 4.0 * rng.NextDouble();
        terms.emplace_back(v, a);
        cap += a;
      }
    }
    if (terms.empty()) continue;
    if (r == 0) terms.emplace_back(p, -1.0);
    m.lp.AddRow(-lp::kInf, 0.55 * cap, terms, "cap");
  }

  Solver solver;
  SolverOptions with, without;
  with.cuts.enable = true;
  without.cuts.enable = false;
  const MipResult a = solver.Solve(m, with);
  const MipResult b = solver.Solve(m, without);
  ASSERT_EQ(a.status, b.status) << "instance " << GetParam();
  if (a.has_solution()) {
    EXPECT_NEAR(a.objective, b.objective, 1e-5) << "instance " << GetParam();
    EXPECT_TRUE(m.lp.CheckFeasible(a.x, 1e-6).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CutsEquivalence,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace milp
}  // namespace sqpr
