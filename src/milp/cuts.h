#ifndef SQPR_MILP_CUTS_H_
#define SQPR_MILP_CUTS_H_

#include <vector>

#include "lp/model.h"

namespace sqpr {
namespace milp {

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
