#ifndef SQPR_MILP_SOLVER_H_
#define SQPR_MILP_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "milp/cuts.h"

namespace sqpr {
namespace milp {

/// A mixed-integer linear program: an LP relaxation plus integrality marks.
struct Model {
  lp::Model lp;
  /// integer[v] == true constrains variable v to integral values. Must be
  /// resized to lp.num_variables() before solving.
  std::vector<bool> integer;
  /// Optional branching priority per variable (higher branches first;
  /// default 0). Lets a model rank structural decisions — e.g. SQPR
  /// branches admission, then operator placement, then availability,
  /// then flows — which collapses the symmetric search space.
  std::vector<int> branch_priority;

  /// Adds a variable to the relaxation and records its integrality.
  int AddVariable(double lb, double ub, double obj, bool is_integer,
                  std::string name = "", int priority = 0) {
    const int v = lp.AddVariable(lb, ub, obj, std::move(name));
    integer.resize(static_cast<size_t>(v) + 1, false);
    integer[static_cast<size_t>(v)] = is_integer;
    branch_priority.resize(static_cast<size_t>(v) + 1, 0);
    branch_priority[static_cast<size_t>(v)] = priority;
    return v;
  }

  /// Convenience for binary decision variables.
  int AddBinary(double obj, std::string name = "") {
    return AddVariable(0.0, 1.0, obj, true, std::move(name));
  }
};

/// Callback used to enforce constraint families that are too large to add
/// up front (SQPR's acyclicity constraints). Invoked on every integral
/// candidate; implementations append violated rows to the relaxation and
/// return how many were added. Added rows must be valid for every integer
/// solution of the true problem (globally valid cuts).
class LazyConstraintHandler {
 public:
  virtual ~LazyConstraintHandler() = default;
  virtual int AddViolatedCuts(const std::vector<double>& candidate,
                              lp::Model* relaxation) = 0;
  /// Optional separation on *fractional* LP points, invoked after each
  /// node relaxation. Returning violated cuts here keeps the search from
  /// exploring regions an integral candidate would only be rejected from
  /// later (e.g. SQPR's near-integral flow cycles). Default: none.
  virtual int AddFractionalCuts(const std::vector<double>& point,
                                lp::Model* relaxation) {
    (void)point;
    (void)relaxation;
    return 0;
  }
};

enum class MipStatus {
  kOptimal,       // incumbent proven optimal (within gap tolerance)
  kFeasible,      // limit hit with an incumbent in hand
  kInfeasible,    // proven no integer solution
  kNoSolution,    // limit hit before any incumbent was found
};

const char* MipStatusName(MipStatus status);

struct SolverOptions {
  Deadline deadline;
  int64_t max_nodes = 1000000;
  /// Run presolve (fixed-column elimination, singleton-row absorption,
  /// activity-based bound propagation) before branch-and-bound. Exact:
  /// never changes the optimal value. SQPR's §IV-A variable fixing makes
  /// this especially effective — every fixed decision becomes a removed
  /// column. Lazy handlers keep seeing original-space candidates; their
  /// cuts are translated into the reduced space transparently.
  bool presolve = true;
  /// Root-node cutting planes (knapsack covers),
  /// applied cut-and-branch style: rows stay valid for the whole tree.
  CutOptions cuts;
  /// Prune when node bound <= incumbent + max(gap_abs, gap_rel*|inc|)
  /// (maximisation). CPLEX-style relative gap default.
  double gap_abs = 1e-9;
  double gap_rel = 1e-6;
  /// Options of the search's LP engine; `deadline` is replaced by the
  /// solve's. The root LP starts from the slack basis; every later LP of
  /// the search starts from the basis the previous one left.
  lp::SimplexOptions lp_options;
  LazyConstraintHandler* lazy = nullptr;
  /// Optional known feasible integral point (e.g. the previous plan in
  /// SQPR's incremental planning); installed as the initial incumbent
  /// after a feasibility check.
  const std::vector<double>* warm_start = nullptr;
};

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  /// Incumbent assignment (empty when status is kInfeasible/kNoSolution).
  std::vector<double> x;
  double objective = 0.0;
  /// Valid dual (upper, for maximisation) bound on the true optimum.
  double best_bound = 0.0;
  int64_t nodes = 0;
  /// Integral LP points whose rounded form broke a row by more than
  /// Deployment::Validate's tolerance; each was branched on (or dropped
  /// when every integer column was pinned), not kept.
  int64_t rejected_candidates = 0;
  /// LP work of the whole search (root, nodes, dives, cut rounds), all on
  /// one engine.
  lp::SimplexCounters lp_counters;
  double wall_ms = 0.0;
  /// True when the search stopped because the (effective) deadline
  /// expired — as opposed to the node limit or a proven optimum. The
  /// caller decides whether the incumbent (kFeasible) is good enough or
  /// a heuristic fallback should take over (kNoSolution).
  bool deadline_hit = false;

  bool has_solution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
  /// Relative optimality gap; 0 when proven optimal.
  double Gap() const;
};

/// Branch-and-bound MILP solver over the relaxations of one SimplexEngine.
///
/// Node selection is best-bound with depth-first plunging (after a branch
/// the child on the "nearest integer" side is explored immediately, which
/// finds incumbents early the way the paper relies on CPLEX's feasibility
/// emphasis under tight deadlines). Branching picks the most fractional
/// integer variable, tie-broken by objective magnitude.
class Solver {
 public:
  MipResult Solve(const Model& model, const SolverOptions& options);
};

}  // namespace milp
}  // namespace sqpr

#endif  // SQPR_MILP_SOLVER_H_
