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

struct SimplexOptions {
  /// Wall-clock bound; checked every few iterations.
  Deadline deadline;
  /// Rebuild the basis inverse from scratch every this many pivots.
  int refactor_interval = 100;
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
};

/// Deterministic work counters of one engine, summed over its solves.
struct SimplexCounters {
  int64_t solves = 0;
  /// Solves whose start basis was the all-slack basis: the first solve,
  /// which loads the model.
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
///    basis — the slack basis at load, or the last solve's — is a legal
///    start;
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
