#ifndef SQPR_MILP_CUTS_H_
#define SQPR_MILP_CUTS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lp/model.h"

namespace sqpr {
namespace milp {

/// One pooled cut row, stored in the *original* (pre-presolve) variable
/// space of the model family it was separated from.
struct PooledCut {
  double lb = 0.0;
  double ub = 0.0;
  std::vector<std::pair<int, double>> terms;
  std::string name;
};

/// A bounded pool of cuts reusable across consecutive solves of the same
/// model skeleton.
///
/// Soundness contract: a cut may enter the pool ONLY when it is valid for
/// every integer-feasible point of every model sharing the skeleton —
/// e.g. SQPR's lazy cycle cuts (Σ arcs of a cycle ≤ |C|−1 holds for any
/// acyclic integral flow regardless of residual capacities). Cuts derived
/// from a particular relaxation's right-hand sides (knapsack covers over
/// residual budgets) are NOT poolable: residuals
/// move between rounds, so those rows can cut off the new optimum.
/// Callers key pools by structure version and drop them wholesale when
/// the skeleton changes (variable indices would dangle).
class CutPool {
 public:
  explicit CutPool(size_t max_cuts = 64) : max_cuts_(max_cuts) {}

  /// Records a cut; exact duplicates (same sorted terms and bounds) are
  /// ignored. When full, the oldest cut is evicted (FIFO) — determinism
  /// over cleverness.
  void Add(PooledCut cut);

  const std::vector<PooledCut>& cuts() const { return cuts_; }
  size_t size() const { return cuts_.size(); }
  bool empty() const { return cuts_.empty(); }

  /// Appends every pooled cut as a row of `lp`. The model must share the
  /// variable space the cuts were separated from.
  void InjectInto(lp::Model* lp) const;

 private:
  size_t max_cuts_;
  std::vector<PooledCut> cuts_;
};

/// Root-node cutting-plane configuration (cut-and-branch).
struct CutOptions {
  bool enable = true;
  /// Separation rounds at the root: separate, re-solve, repeat while
  /// violated cuts are found.
  int max_rounds = 4;
  /// Cap on cuts added per round.
  int max_cuts_per_round = 25;
  /// Minimum violation for a cut to be worth adding.
  double min_violation = 1e-4;
};

/// Generates globally valid knapsack cover cuts at the root relaxation.
///
/// Every SQPR resource constraint (III.6a-d) is a 0/1 knapsack over
/// flow/operator indicators; when the LP spreads fractional mass over a
/// set whose total demand exceeds the budget, the (extended) cover
/// inequality sum_{j in C} x_j <= |C|-1 cuts it. Covers are valid for
/// every integer-feasible point, so rows can stay in the relaxation for
/// the whole branch-and-bound search.
class CutGenerator {
 public:
  /// `integer` marks the integral columns of the model being solved (the
  /// reduced model when presolve ran). The mask is copied.
  CutGenerator(std::vector<bool> integer, CutOptions options);

  /// Appends violated cuts to `work` given the optimal relaxation point
  /// `x` of `work`. Returns the number of rows added.
  int Separate(const std::vector<double>& x, lp::Model* work);

 private:
  std::vector<bool> integer_;
  CutOptions options_;
  /// Rows already used to spawn a cover cut (avoid duplicates across
  /// rounds; keyed by row index).
  std::vector<bool> cover_used_;
};

}  // namespace milp
}  // namespace sqpr

#endif  // SQPR_MILP_CUTS_H_
