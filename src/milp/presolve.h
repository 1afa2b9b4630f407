#ifndef SQPR_MILP_PRESOLVE_H_
#define SQPR_MILP_PRESOLVE_H_

#include <utility>
#include <vector>

#include "milp/solver.h"

namespace sqpr {
namespace milp {

/// Statistics of one presolve application (for logging and tests).
struct PresolveStats {
  int fixed_columns = 0;      // columns removed because lb == ub
  int removed_rows = 0;       // redundant or singleton rows dropped
  int singleton_rows = 0;     // rows converted into variable bounds
  int tightened_bounds = 0;   // variable bound tightenings from activities
  int rounds = 0;             // propagation rounds until fixpoint
  bool proven_infeasible = false;
};

/// Rounds an integer variable's bounds inward to the integral lattice
/// (a bound within 1e-6 of an integer snaps to it). The result crosses
/// (lb > ub) when the box holds no integer.
void RoundIntegerBounds(double* lb, double* ub);

/// MILP presolve: shrinks a model before branch-and-bound.
///
/// SQPR's problem reduction (§IV-A) works by *fixing* every decision
/// variable outside S(q)/O(q) at its incumbent value — the model handed
/// to the solver therefore contains thousands of columns whose bounds
/// already pin them. Presolve removes exactly that dead weight, the role
/// CPLEX's presolve plays for the paper:
///
///  * fixed columns (lb == ub) are substituted into every row and the
///    objective, then dropped;
///  * singleton rows become variable bounds and are dropped;
///  * activity-based bound propagation tightens variable bounds row by
///    row (with floor/ceil rounding for integer columns) and removes
///    rows whose activity range makes them redundant;
///  * rounds repeat until a fixpoint (tightening can fix new columns).
///
/// The transformation is *exact*: the reduced model has the same optimal
/// value (shifted by a constant) and Postsolve maps any reduced solution
/// back to a full-space solution. Infeasibility discovered during
/// propagation is reported so the caller can skip the solve entirely.
class Presolver {
 public:
  struct Options {
    double feasibility_tol = 1e-9;
    int max_rounds = 20;
  };

  Presolver() = default;
  explicit Presolver(Options options) : options_(options) {}

  /// Reduces `model`. The reduced model is available via reduced();
  /// returns the stats. When stats.proven_infeasible is set the reduced
  /// model is meaningless and must not be solved.
  PresolveStats Apply(const Model& model);

  const Model& reduced() const { return reduced_; }

  /// Objective constant contributed by fixed columns: the true objective
  /// of a full-space solution is reduced-objective + constant.
  double objective_constant() const { return objective_constant_; }

  /// Maps a reduced-space assignment back to the original variable space
  /// (fixed columns take their pinned values) into *full, reusing its
  /// storage. `full` must not alias `reduced_x`.
  void Postsolve(const std::vector<double>& reduced_x,
                 std::vector<double>* full) const;

  /// Projects a full-space assignment onto the reduced space. Returns
  /// false when the assignment disagrees with a pinned column by more
  /// than the feasibility tolerance (then the projection is invalid).
  bool ProjectToReduced(const std::vector<double>& full_x,
                        std::vector<double>* reduced_x) const;

  /// Translates an original-space row (terms over original column
  /// indices) into the reduced space: pinned columns fold into the
  /// bounds, surviving columns are re-indexed. Used to forward lazy cuts
  /// generated in full space into the reduced relaxation. *reduced_terms
  /// is overwritten and keeps its storage.
  void TranslateRow(const std::vector<std::pair<int, double>>& terms,
                    double lb, double ub,
                    std::vector<std::pair<int, double>>* reduced_terms,
                    double* reduced_lb, double* reduced_ub) const;

  /// reduced column index of original column v, or -1 when pinned.
  int column_map(int v) const { return col_map_[v]; }

 private:
  Options options_{};
  Model reduced_;
  std::vector<int> col_map_;         // orig -> reduced, -1 if pinned
  std::vector<double> fixed_value_;  // orig-indexed; valid where pinned
  double objective_constant_ = 0.0;
};

}  // namespace milp
}  // namespace sqpr

#endif  // SQPR_MILP_PRESOLVE_H_
