#ifndef SQPR_LP_SIMPLEX_H_
#define SQPR_LP_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "lp/model.h"

namespace sqpr {
namespace lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

/// Column status in a simplex basis; the unit of warm-start exchange
/// between solves. Order: structural columns 0..n-1, then row slacks.
enum class BasisState : uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kFree,
};

struct SimplexOptions {
  /// Hard cap on simplex iterations per solve. Zero means "choose
  /// automatically from the problem size".
  int64_t max_iterations = 0;
  /// Wall-clock bound; checked every few iterations.
  Deadline deadline;
  /// Absolute primal feasibility / reduced-cost tolerance.
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  /// Rebuild the basis inverse from scratch every this many pivots.
  int refactor_interval = 100;
  /// Optional starting basis for the first solve (from a previous solve
  /// of a closely related model). Must describe the same columns; extra
  /// trailing rows (lazy cuts added since) are padded with basic slacks.
  /// A singular or mismatched warm basis falls back to the slack basis
  /// silently. The pointee must outlive the first Solve().
  const std::vector<BasisState>* warm_basis = nullptr;
};

struct SimplexResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Structural variable values (model.num_variables() entries). On
  /// kOptimal this is the optimal vertex; on an iteration or time limit
  /// it is the last iterate, which need not be primal feasible.
  std::vector<double> values;
  /// Objective in the model's own sense.
  double objective = 0.0;
  int64_t iterations = 0;
  /// Final basis, reusable as SimplexOptions::warm_basis for subsequent
  /// related solves.
  std::vector<BasisState> basis_state;
};

/// Deterministic work counters of one engine, summed over its solves.
struct SimplexCounters {
  int64_t solves = 0;
  /// Solves whose start basis was the all-slack basis (no warm basis, or
  /// a warm basis that was mismatched or singular).
  int64_t slack_starts = 0;
  int64_t slack_start_iterations = 0;
  int64_t iterations = 0;
  /// Dense basis factorizations, including the one at load.
  int64_t factorizations = 0;
  /// Solves that ran the dual simplex (start basis dual feasible after
  /// bound flips).
  int64_t dual_solves = 0;
};

/// Bounded-variable revised simplex whose LP state outlives one solve.
///
/// This is the LP engine underneath the branch-and-bound MILP solver that
/// stands in for CPLEX in the SQPR reproduction. One engine serves every
/// relaxation of one MILP solve: the first Solve() loads the model (CSC
/// columns, bounds, costs, start basis, one factorization); each later
/// Solve() of the same model diffs its bounds and objective in place,
/// borders the basis inverse with any appended rows (lazy and root
/// cuts), and re-solves from the engine's current basis. The inverse is
/// rebuilt only every refactor_interval pivots, not per solve.
///
/// Design points:
///  * rows are turned into equalities with bounded slack columns, so any
///    basis — a warm one, or the last node's — is a legal start;
///  * the method follows the start basis: when bound flips make it dual
///    feasible (the usual case after a branch tightens a bound) a bounded
///    dual simplex runs; otherwise a composite (infeasibility-minimising)
///    primal phase 1 and then phase 2 run. A dual run hands its final
///    basis to the primal phase 2 as a clean-up pricing pass;
///  * Dantzig pricing, Harris two-pass ratio tests, and a switch to
///    Bland's rule after a run of degenerate primal pivots;
///  * the dense inverse is kept column-major via product-form updates
///    and rebuilt by Gauss-Jordan every refactor_interval pivots, or
///    when an optimal exit measures a primal residual (the updates
///    carry across solves, so every optimal exit checks it).
class SimplexEngine {
 public:
  explicit SimplexEngine(SimplexOptions options = {});
  ~SimplexEngine();
  SimplexEngine(const SimplexEngine&) = delete;
  SimplexEngine& operator=(const SimplexEngine&) = delete;

  /// Solves `model`. Every call after the first must pass the same
  /// model, changed only in variable bounds, row bounds and objective
  /// coefficients, and with rows appended, never removed or edited.
  SimplexResult Solve(const Model& model);

  const SimplexCounters& counters() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot solve: loads `model` into a fresh SimplexEngine and solves it.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the LP. The model is read-only.
  SimplexResult Solve(const Model& model);

 private:
  SimplexOptions options_;
};

}  // namespace lp
}  // namespace sqpr

#endif  // SQPR_LP_SIMPLEX_H_
