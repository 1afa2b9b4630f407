// Exactness property: on small random LPs the simplex optimum must
// equal the best vertex found by brute-force basis enumeration. This is
// the strongest correctness check we can run without an external
// solver — every basic feasible solution of the slack-form system is
// enumerated and evaluated.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sqpr {
namespace lp {
namespace {

/// Solves the dense m x m system B y = rhs by Gaussian elimination with
/// partial pivoting. Returns false when singular.
bool DenseSolve(std::vector<double> B, int m, std::vector<double> rhs,
                std::vector<double>* y) {
  std::vector<int> perm(m);
  for (int i = 0; i < m; ++i) perm[i] = i;
  for (int col = 0; col < m; ++col) {
    int pivot = -1;
    double best = 1e-9;
    for (int r = col; r < m; ++r) {
      if (std::abs(B[r * m + col]) > best) {
        best = std::abs(B[r * m + col]);
        pivot = r;
      }
    }
    if (pivot < 0) return false;
    for (int c = 0; c < m; ++c) std::swap(B[pivot * m + c], B[col * m + c]);
    std::swap(rhs[pivot], rhs[col]);
    for (int r = 0; r < m; ++r) {
      if (r == col) continue;
      const double f = B[r * m + col] / B[col * m + col];
      if (f == 0.0) continue;
      for (int c = col; c < m; ++c) B[r * m + c] -= f * B[col * m + c];
      rhs[r] -= f * rhs[col];
    }
  }
  y->assign(m, 0.0);
  for (int i = 0; i < m; ++i) (*y)[i] = rhs[i] / B[i * m + i];
  return true;
}

/// Brute-force LP optimum over all slack-form bases: columns are the n
/// structural variables plus one slack per row (coefficient -1, bounds =
/// row bounds), equations A_full v = 0. For every m-subset of columns
/// chosen basic and every lower/upper assignment of the nonbasic
/// columns, solve for the basic values and keep the best feasible point.
/// Exponential — only usable for tiny models.
bool BruteForceOptimum(const Model& model, double* best_obj) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  const int total = n + m;

  // Dense column matrix and bounds of the slack form.
  std::vector<double> cols(static_cast<size_t>(total) * m, 0.0);
  std::vector<double> lb(total), ub(total), obj(total, 0.0);
  for (int v = 0; v < n; ++v) {
    lb[v] = model.variable_lb(v);
    ub[v] = model.variable_ub(v);
    obj[v] = model.objective(v);
  }
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, coef] : model.row_terms(r)) {
      cols[static_cast<size_t>(v) * m + r] += coef;
    }
    cols[static_cast<size_t>(n + r) * m + r] = -1.0;
    lb[n + r] = model.row_lb(r);
    ub[n + r] = model.row_ub(r);
  }

  const double sign = model.sense() == Sense::kMaximize ? 1.0 : -1.0;
  bool found = false;
  double best = -kInf;

  // Enumerate basic column subsets via bitmask.
  for (uint32_t mask = 0; mask < (1u << total); ++mask) {
    if (__builtin_popcount(mask) != m) continue;
    std::vector<int> basic, nonbasic;
    for (int c = 0; c < total; ++c) {
      if (mask & (1u << c)) {
        basic.push_back(c);
      } else {
        nonbasic.push_back(c);
      }
    }
    // Every nonbasic at lower or upper bound: 2^(total-m) assignments,
    // but skip sides at infinity.
    const int k = total - m;
    for (uint32_t side = 0; side < (1u << k); ++side) {
      std::vector<double> x(total, 0.0);
      bool ok = true;
      for (int j = 0; j < k && ok; ++j) {
        const int c = nonbasic[j];
        const double v = (side & (1u << j)) ? ub[c] : lb[c];
        if (!std::isfinite(v)) {
          ok = false;
        } else {
          x[c] = v;
        }
      }
      if (!ok) continue;
      // Solve B x_B = -N x_N.
      std::vector<double> B(static_cast<size_t>(m) * m);
      for (int j = 0; j < m; ++j) {
        for (int r = 0; r < m; ++r) {
          B[static_cast<size_t>(r) * m + j] =
              cols[static_cast<size_t>(basic[j]) * m + r];
        }
      }
      std::vector<double> rhs(m, 0.0);
      for (int j = 0; j < k; ++j) {
        const int c = nonbasic[j];
        for (int r = 0; r < m; ++r) {
          rhs[r] -= cols[static_cast<size_t>(c) * m + r] * x[c];
        }
      }
      std::vector<double> xb;
      if (!DenseSolve(B, m, rhs, &xb)) continue;
      for (int j = 0; j < m && ok; ++j) {
        const int c = basic[j];
        if (xb[j] < lb[c] - 1e-7 || xb[j] > ub[c] + 1e-7) ok = false;
        x[c] = xb[j];
      }
      if (!ok) continue;
      double value = 0.0;
      for (int v = 0; v < n; ++v) value += obj[v] * x[v];
      if (sign * value > sign * best || !found) {
        best = value;
        found = true;
      }
    }
  }
  *best_obj = best;
  return found;
}

Model RandomSmallLp(uint64_t seed) {
  Rng rng(seed);
  Model m(rng.NextBool(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int n = 2 + static_cast<int>(rng.NextUint64() % 3);  // 2..4 vars
  const int rows = 1 + static_cast<int>(rng.NextUint64() % 3);
  for (int v = 0; v < n; ++v) {
    const double lo = rng.NextBool(0.3) ? -2.0 : 0.0;
    m.AddVariable(lo, lo + 1.0 + 4.0 * rng.NextDouble(),
                  std::round(10.0 * (rng.NextDouble() - 0.4)) / 2.0);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.7)) {
        terms.emplace_back(v, std::round(6.0 * (rng.NextDouble() - 0.4)));
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double b = std::round(8.0 * rng.NextDouble());
    if (rng.NextBool(0.5)) {
      m.AddRow(-kInf, b, std::move(terms));
    } else {
      m.AddRow(-b, b + 2.0, std::move(terms));
    }
  }
  return m;
}

class SimplexVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(SimplexVsBruteForce, OptimaAgree) {
  const Model m = RandomSmallLp(0xb407e + GetParam());
  SimplexSolver solver;
  const SimplexResult result = solver.Solve(m);

  double brute = 0.0;
  const bool brute_found = BruteForceOptimum(m, &brute);

  if (result.status == SolveStatus::kOptimal) {
    ASSERT_TRUE(brute_found) << "simplex found an optimum brute force missed";
    // The optimum lies at a vertex, which the enumeration visits.
    EXPECT_NEAR(result.objective, brute, 1e-5) << "instance " << GetParam();
    EXPECT_TRUE(m.CheckFeasible(result.values, 1e-6).ok());
  } else if (result.status == SolveStatus::kInfeasible) {
    EXPECT_FALSE(brute_found) << "instance " << GetParam()
                              << ": brute force found a feasible vertex";
  }
  // kUnbounded: all variables here are boxed, but rows can make the
  // enumeration miss unbounded rays; nothing to cross-check.
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexVsBruteForce,
                         ::testing::Range(0, 60));

// One engine re-solving a model that changes under it — bounds tightened,
// relaxed and fixed, rows appended, row bounds moved, the operations
// branch-and-bound, lazy cuts and root cuts apply — must agree after
// every change with a fresh cold solve and with brute-force enumeration.
class EngineResolveVsCold : public ::testing::TestWithParam<int> {};

TEST_P(EngineResolveVsCold, EveryResolveMatchesColdSolve) {
  const uint64_t seed = 0x5e501e + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  Model m = RandomSmallLp(seed);
  const int n = m.num_variables();
  std::vector<std::pair<double, double>> original(n);
  for (int v = 0; v < n; ++v) {
    original[v] = {m.variable_lb(v), m.variable_ub(v)};
  }
  auto half = [](double v) { return std::round(2.0 * v) / 2.0; };

  SimplexEngine engine;
  std::vector<double> last;
  for (int step = 0; step < 14; ++step) {
    const int op = step == 0 ? -1 : static_cast<int>(rng.NextBounded(5));
    const int v = static_cast<int>(rng.NextBounded(n));
    const double lo = original[v].first, hi = original[v].second;
    const double cut = half(lo + (hi - lo) * rng.NextDouble());
    switch (op) {
      case 0:  // tighten one side (a branch)
        if (rng.NextBool(0.5)) {
          m.SetVariableBounds(v, m.variable_lb(v),
                              std::max(m.variable_lb(v), cut));
        } else {
          m.SetVariableBounds(v, std::min(m.variable_ub(v), cut),
                              m.variable_ub(v));
        }
        break;
      case 1:  // relax back to the original box (backtracking)
        m.SetVariableBounds(v, lo, hi);
        break;
      case 2:  // fix (a dive rounding)
        m.SetVariableBounds(v, std::clamp(cut, lo, hi), std::clamp(cut, lo, hi));
        break;
      case 3: {  // append a row, often cutting off the last optimum
        if (m.num_rows() >= 5) break;
        std::vector<std::pair<int, double>> terms;
        double activity = 0.0;
        for (int u = 0; u < n; ++u) {
          if (!rng.NextBool(0.6)) continue;
          const double coef = std::round(6.0 * (rng.NextDouble() - 0.4));
          terms.emplace_back(u, coef);
          if (!last.empty()) activity += coef * last[u];
        }
        if (terms.empty()) terms.emplace_back(v, 1.0);
        m.AddRow(-kInf, half(activity - 2.0 * rng.NextDouble()),
                 std::move(terms), "cut" + std::to_string(step));
        break;
      }
      case 4: {  // move a row's bounds (a patched right-hand side)
        const int r = static_cast<int>(rng.NextBounded(m.num_rows()));
        const double b = std::round(8.0 * rng.NextDouble());
        m.SetRowBounds(r, rng.NextBool(0.5) ? -kInf : -b, b + 1.0);
        break;
      }
      default:
        break;
    }

    const SimplexResult warm = engine.Solve(m);
    const SimplexResult cold = SimplexSolver().Solve(m);
    double brute = 0.0;
    const bool feasible = BruteForceOptimum(m, &brute);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed << " step " << step;
    if (warm.status == SolveStatus::kOptimal) {
      ASSERT_TRUE(feasible) << "seed " << seed << " step " << step;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
          << "seed " << seed << " step " << step;
      EXPECT_NEAR(warm.objective, brute, 1e-5)
          << "seed " << seed << " step " << step;
      EXPECT_TRUE(m.CheckFeasible(warm.values, 1e-6).ok())
          << "seed " << seed << " step " << step;
      last = warm.values;
    } else {
      EXPECT_EQ(warm.status, SolveStatus::kInfeasible);
      EXPECT_FALSE(feasible) << "seed " << seed << " step " << step;
    }
  }
  // One load, then in-place updates: never a factorization per solve.
  EXPECT_EQ(engine.counters().solves, 14);
  EXPECT_EQ(engine.counters().slack_starts, 1);
  EXPECT_LT(engine.counters().factorizations, engine.counters().solves);
  EXPECT_GT(engine.counters().dual_solves, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, EngineResolveVsCold,
                         ::testing::Range(0, 40));

// The state an engine keeps across solves — its pivoted inverse, the
// list of priceable columns, the cached duals y = c_B B^-1 — under the
// moves that stress it: refactorization every 2-3 pivots, so product-
// form updates, refactorizations and re-solves interleave; nonbasic
// structural and slack columns fixed where they rest and unfixed again;
// rows appended between solves, some through the current vertex or
// duplicating an existing row (degenerate vertices); objective
// coefficients tied to each other or changed with the basis kept.
// Every re-solve must agree with a cold solve and with brute force.
class EngineResolveVsColdLong : public ::testing::TestWithParam<int> {};

TEST_P(EngineResolveVsColdLong, EveryResolveMatchesColdSolve) {
  const uint64_t seed = 0x10e6 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  // Four boxed columns and two rows to start: enough vertices that the
  // moves below make the engine pivot, few enough for brute force.
  Model m(Sense::kMaximize);
  const int n = 4;
  for (int v = 0; v < n; ++v) {
    const double lo = rng.NextBool(0.3) ? -2.0 : 0.0;
    m.AddVariable(lo, lo + 1.0 + std::round(4.0 * rng.NextDouble()),
                  std::round(10.0 * (rng.NextDouble() - 0.3)) / 2.0);
  }
  for (int r = 0; r < 2; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      terms.emplace_back(v, 1.0 + std::round(3.0 * rng.NextDouble()));
    }
    m.AddRow(-kInf, 2.0 + std::round(6.0 * rng.NextDouble()),
             std::move(terms));
  }
  std::vector<std::pair<double, double>> original(n);
  for (int v = 0; v < n; ++v) {
    original[v] = {m.variable_lb(v), m.variable_ub(v)};
  }
  auto half = [](double v) { return std::round(2.0 * v) / 2.0; };

  SimplexOptions options;
  options.refactor_interval = 2 + GetParam() % 2;
  SimplexEngine engine(options);
  constexpr int kSteps = 48;
  constexpr int kMaxRows = 5;
  std::vector<double> last;
  std::vector<int> fixed;  // structural columns fixed by this sequence
  int optimal_steps = 0;
  bool infeasible = false;
  for (int step = 0; step < kSteps; ++step) {
    // After an infeasible solve, mostly relax (op 9) to get back.
    int op = step == 0 ? -1 : static_cast<int>(rng.NextBounded(9));
    if (infeasible && rng.NextBool(0.7)) op = 9;
    // Columns (structural, then row slacks as n + row) that rested on a
    // bound at the last optimum.
    std::vector<int> at_bound;
    auto on_bound = [](double v, double lb, double ub) {
      return std::abs(v - lb) <= 1e-9 || std::abs(v - ub) <= 1e-9;
    };
    for (int c = 0; c < n && !last.empty(); ++c) {
      if (on_bound(last[c], m.variable_lb(c), m.variable_ub(c))) {
        at_bound.push_back(c);
      }
    }
    for (int r = 0; r < m.num_rows() && !last.empty(); ++r) {
      double activity = 0.0;
      for (const auto& [u, coef] : m.row_terms(r)) activity += coef * last[u];
      if (on_bound(activity, m.row_lb(r), m.row_ub(r))) {
        at_bound.push_back(n + r);
      }
    }
    switch (op) {
      case 0: {  // fix a column at the bound it rests on
        if (at_bound.empty()) break;
        const int c = at_bound[rng.NextBounded(at_bound.size())];
        if (c < n) {
          m.SetVariableBounds(c, last[c], last[c]);
          fixed.push_back(c);
        } else {
          const int r = c - n;
          double activity = 0.0;
          for (const auto& [u, coef] : m.row_terms(r)) {
            activity += coef * last[u];
          }
          m.SetRowBounds(r, activity, activity);
        }
        break;
      }
      case 1: {  // unfix a fixed column back to its box
        if (fixed.empty()) break;
        const size_t i = rng.NextBounded(fixed.size());
        const int v = fixed[i];
        m.SetVariableBounds(v, original[v].first, original[v].second);
        fixed.erase(fixed.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 2: {  // append a row through the current vertex (degenerate)
        if (m.num_rows() >= kMaxRows || last.empty()) break;
        std::vector<std::pair<int, double>> terms;
        double activity = 0.0;
        for (int u = 0; u < n; ++u) {
          if (!rng.NextBool(0.6)) continue;
          const double coef = std::round(6.0 * (rng.NextDouble() - 0.4));
          terms.emplace_back(u, coef);
          activity += coef * last[u];
        }
        if (terms.empty()) break;
        m.AddRow(-kInf, activity, std::move(terms));
        break;
      }
      case 3: {  // append a copy of an existing row (a parallel face)
        if (m.num_rows() >= kMaxRows) break;
        const int r = static_cast<int>(rng.NextBounded(m.num_rows()));
        m.AddRow(m.row_lb(r), m.row_ub(r), m.row_terms(r));
        break;
      }
      case 4: {  // append a row cutting off the last optimum
        if (m.num_rows() >= kMaxRows) break;
        std::vector<std::pair<int, double>> terms;
        double activity = 0.0;
        for (int u = 0; u < n; ++u) {
          if (!rng.NextBool(0.6)) continue;
          const double coef = std::round(6.0 * (rng.NextDouble() - 0.4));
          terms.emplace_back(u, coef);
          if (!last.empty()) activity += coef * last[u];
        }
        if (terms.empty()) terms.emplace_back(0, 1.0);
        m.AddRow(-kInf, half(activity - 2.0 * rng.NextDouble()),
                 std::move(terms));
        break;
      }
      case 5: {  // tie one objective coefficient to another
        const int a = static_cast<int>(rng.NextBounded(n));
        const int b = static_cast<int>(rng.NextBounded(n));
        m.SetObjective(a, m.objective(b));
        break;
      }
      case 6: {  // move an objective coefficient, keeping the basis
        const int v = static_cast<int>(rng.NextBounded(n));
        m.SetObjective(v, std::round(10.0 * (rng.NextDouble() - 0.4)) / 2.0);
        break;
      }
      case 7: {  // move a row's bound through or past the last optimum
        const int r = static_cast<int>(rng.NextBounded(m.num_rows()));
        if (last.empty()) break;
        double activity = 0.0;
        for (const auto& [u, coef] : m.row_terms(r)) activity += coef * last[u];
        // A zero step leaves the vertex on the moved face: a tie.
        const double ub = activity - 0.5 * rng.NextBounded(4);
        m.SetRowBounds(r, std::min(m.row_lb(r), ub), ub);
        break;
      }
      case 8:  // flip the sense: every reduced cost changes sign
        m.set_sense(m.sense() == Sense::kMaximize ? Sense::kMinimize
                                                  : Sense::kMaximize);
        break;
      case 9: {  // relax: unfix every column and open one row
        for (int v : fixed) {
          m.SetVariableBounds(v, original[v].first, original[v].second);
        }
        fixed.clear();
        const int r = static_cast<int>(rng.NextBounded(m.num_rows()));
        m.SetRowBounds(r, -kInf, 10.0);
        break;
      }
      default:
        break;
    }

    const SimplexResult warm = engine.Solve(m);
    const SimplexResult cold = SimplexSolver().Solve(m);
    double brute = 0.0;
    const bool feasible = BruteForceOptimum(m, &brute);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed << " step " << step;
    if (warm.status == SolveStatus::kOptimal) {
      ASSERT_TRUE(feasible) << "seed " << seed << " step " << step;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
          << "seed " << seed << " step " << step;
      EXPECT_NEAR(warm.objective, brute, 1e-5)
          << "seed " << seed << " step " << step;
      EXPECT_TRUE(m.CheckFeasible(warm.values, 1e-6).ok())
          << "seed " << seed << " step " << step;
      last = warm.values;
      ++optimal_steps;
      infeasible = false;
    } else {
      infeasible = true;
      EXPECT_EQ(warm.status, SolveStatus::kInfeasible);
      EXPECT_FALSE(feasible) << "seed " << seed << " step " << step;
    }
  }
  EXPECT_EQ(engine.counters().solves, kSteps);
  EXPECT_EQ(engine.counters().slack_starts, 1);
  // The short interval refactorizes after the load as well.
  EXPECT_GT(engine.counters().factorizations, 1);
  // The recovery moves keep the sequence mostly feasible, so the
  // comparisons above mostly compare optima.
  EXPECT_GE(optimal_steps, kSteps / 4);
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, EngineResolveVsColdLong,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace lp
}  // namespace sqpr
