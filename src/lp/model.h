#ifndef SQPR_LP_MODEL_H_
#define SQPR_LP_MODEL_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sqpr {
namespace lp {

/// Positive infinity sentinel for unbounded variable/row bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kMaximize, kMinimize };

/// A linear program over bounded variables:
///
///   max/min  c^T v
///   s.t.     row_lb <= A v <= row_ub     (equality when row_lb == row_ub)
///            var_lb <=   v <= var_ub
///
/// The model is a plain builder: variables and rows are appended, then the
/// whole object is handed to SimplexSolver. Rows are stored sparsely.
///
/// Names are optional and cost nothing when absent: a model stores only
/// the names it is given (the MPS reader names everything, the SQPR
/// model builder nothing), and an unnamed variable or row reads back as
/// "". Nothing in the solvers reads a name; they label MPS/LP output
/// and CheckFeasible messages (which fall back to the index).
class Model {
 public:
  explicit Model(Sense sense = Sense::kMaximize) : sense_(sense) {}

  Sense sense() const { return sense_; }
  void set_sense(Sense sense) { sense_ = sense; }

  /// Adds a variable with bounds [lb, ub] and objective coefficient obj.
  /// Returns its dense index. Fixed variables (lb == ub) are legal.
  int AddVariable(double lb, double ub, double obj, std::string name = {});

  /// Adds a constraint row `lb <= sum coef_i * var_i <= ub`. Terms must
  /// reference existing variables; duplicate variable entries within one
  /// row are summed (in place, in the given vector) and zero sums
  /// dropped. Returns the row index.
  int AddRow(double lb, double ub,
             std::vector<std::pair<int, double>> terms,
             std::string name = {});

  /// Overwrites a variable's bounds (used by branch-and-bound).
  void SetVariableBounds(int var, double lb, double ub);

  /// Overwrites a row's bounds in place, keeping its terms. Used by the
  /// incremental SQPR model patcher: the constraint *skeleton* of a
  /// grounded query structure is base-state independent, only the
  /// right-hand sides (residual capacities) move between rounds.
  void SetRowBounds(int row, double lb, double ub);

  /// Overwrites a variable's objective coefficient.
  void SetObjective(int var, double obj) { obj_[var] = obj; }

  int num_variables() const { return static_cast<int>(var_lb_.size()); }
  int num_rows() const { return static_cast<int>(row_lb_.size()); }

  double variable_lb(int v) const { return var_lb_[v]; }
  double variable_ub(int v) const { return var_ub_[v]; }
  double objective(int v) const { return obj_[v]; }
  double row_lb(int r) const { return row_lb_[r]; }
  double row_ub(int r) const { return row_ub_[r]; }
  const std::vector<std::pair<int, double>>& row_terms(int r) const {
    return rows_[r];
  }
  /// The name given to variable v / row r, or "" when it has none.
  const std::string& variable_name(int v) const {
    return NameAt(var_names_, v);
  }
  const std::string& row_name(int r) const { return NameAt(row_names_, r); }

  /// Computes c^T v for a full assignment.
  double ObjectiveValue(const std::vector<double>& v) const;

  /// Checks an assignment against all rows and variable bounds with the
  /// given absolute tolerance. Returns OK or a description of the first
  /// violated constraint (used by tests and by the MILP incumbent check).
  Status CheckFeasible(const std::vector<double>& v, double tol) const;

 private:
  // Names are stored up to the last named entry only.
  static const std::string& NameAt(const std::vector<std::string>& names,
                                   int i);
  static void SetName(std::vector<std::string>* names, int i,
                      std::string name);

  Sense sense_;
  std::vector<double> var_lb_, var_ub_, obj_;
  std::vector<double> row_lb_, row_ub_;
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<std::string> var_names_, row_names_;  // see NameAt
};

}  // namespace lp
}  // namespace sqpr

#endif  // SQPR_LP_MODEL_H_
