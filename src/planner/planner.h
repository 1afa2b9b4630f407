#ifndef SQPR_PLANNER_PLANNER_H_
#define SQPR_PLANNER_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/deployment.h"

namespace sqpr {

/// Per-submission planning outcome reported by every planner.
struct PlanningStats {
  /// Whether the query was admitted (resources committed).
  bool admitted = false;
  /// True when an equivalent query was already being served, so admission
  /// was free (dedup hit on line 3 of Algorithm 1).
  bool already_served = false;
  /// Wall-clock planning latency.
  double wall_ms = 0.0;
  /// The part of wall_ms spent applying the chosen plan to the
  /// deployment and auditing it (0 when nothing committed).
  double commit_ms = 0.0;
  /// Branch-and-bound nodes explored (0 for non-MILP planners).
  int64_t solver_nodes = 0;
  int64_t lp_iterations = 0;
  /// The rest of the MILP's deterministic effort (lp::SimplexCounters
  /// and MipResult): basis factorizations, LP calls that ran the dual
  /// simplex, pivots of LP calls that started from the slack basis, and
  /// integral candidates rejected after rounding.
  int64_t lp_factorizations = 0;
  int64_t lp_dual_solves = 0;
  int64_t lp_slack_start_iterations = 0;
  int64_t rejected_candidates = 0;
  /// Objective value of the committed plan (planner-specific scale).
  double objective = 0.0;
  /// True when the solver proved optimality of the reduced problem
  /// before its deadline.
  bool proved_optimal = false;
  /// True when admission bypassed the solver entirely because the
  /// requested stream was already materialised by committed operators
  /// (plan-reuse cache fast path; see service/plan_cache.h).
  bool via_cache = false;
  /// Incremental-solve telemetry (SQPR planner only). A submission that
  /// ran the MILP either patched a cached model skeleton (bounds-only
  /// rebind against the current deployment) or built one from scratch.
  bool model_patched = false;
  bool model_rebuilt = false;
  /// True when the SQPR planner rejected the submission by its exact
  /// admission screen (AdmissionHopeless in planner/sqpr/model_builder.h)
  /// without building or solving a model: no plan the model accepts
  /// serves any fresh query, so the rejection is proved with zero solver
  /// effort.
  bool screened = false;
  /// Degraded-mode solving (docs/ARCHITECTURE.md "Durability & degraded
  /// modes"). deadline_hit: the MILP ran out of its per-solve wall
  /// budget (SqprPlanner::Options::solve_deadline_ms) before proving
  /// optimality; the planner then committed the best incumbent, or fell
  /// back to the greedy heuristic. admitted_via_heuristic: admission
  /// came from the greedy fallback rather than a MILP solution — the
  /// plan is feasible but carries no optimality claim.
  bool deadline_hit = false;
  bool admitted_via_heuristic = false;
};

/// Common interface of all query planners (SQPR, heuristic, SODA).
///
/// A planner owns a Deployment and mutates it as queries are admitted.
/// Submitting a query never returns an error for a plain "cannot admit" —
/// that is a normal outcome reported via PlanningStats::admitted. Errors
/// are reserved for malformed inputs.
class Planner {
 public:
  virtual ~Planner() = default;

  virtual std::string name() const = 0;

  /// Plans (and on success commits) the requested stream. Repeated
  /// submission of an already-served stream reports already_served.
  virtual Result<PlanningStats> SubmitQuery(StreamId query) = 0;

  /// The committed allocation state.
  virtual const Deployment& deployment() const = 0;

  /// Streams admitted so far, in submission order.
  virtual const std::vector<StreamId>& admitted_queries() const = 0;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_PLANNER_H_
