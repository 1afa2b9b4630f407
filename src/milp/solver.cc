#include "milp/solver.h"

#include <algorithm>
#include <cmath>
#include <climits>
#include <queue>

#include "common/logging.h"
#include "milp/presolve.h"
#include "obs/trace.h"

namespace sqpr {
namespace milp {
namespace {

/// Row and bound tolerance an incumbent must meet *after* its integer
/// columns are rounded: Deployment::Validate's default, so a committed
/// plan never fails the audit by a rounding residue.
constexpr double kAcceptTol = 1e-6;

/// One branch decision: tighten `var` to [lb, ub].
struct BoundChange {
  int var;
  double lb;
  double ub;
};

/// Open node in the search tree. Bound changes are stored as a chain to
/// the root so open nodes cost O(1) memory each.
struct Node {
  int parent = -1;          // index into the node arena, -1 for root
  BoundChange change{};     // no-op for the root
  double bound = 0.0;       // inherited dual bound (maximisation)
  int depth = 0;
};

struct QueueEntry {
  double bound;
  int node;
  bool operator<(const QueueEntry& other) const {
    return bound < other.bound;  // max-heap on bound
  }
};

lp::SimplexOptions EngineOptions(const SolverOptions& options) {
  lp::SimplexOptions lp_options = options.lp_options;
  lp_options.deadline = options.deadline;
  return lp_options;
}

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const SolverOptions& options)
      : base_(model),
        options_(options),
        work_(model.lp),
        engine_(EngineOptions(options)),
        int_lb_(model.lp.num_variables()),
        int_ub_(model.lp.num_variables()) {
    // Branching and diving assume integral bounds on integer columns;
    // without presolve a fractional bound would let them step past it.
    for (int v = 0; v < model.lp.num_variables(); ++v) {
      if (!model.integer[v]) continue;
      int_lb_[v] = model.lp.variable_lb(v);
      int_ub_[v] = model.lp.variable_ub(v);
      RoundIntegerBounds(&int_lb_[v], &int_ub_[v]);
      if (int_lb_[v] > int_ub_[v]) {
        empty_box_ = true;  // no integer in the box: the root is empty
      } else {
        work_.SetVariableBounds(v, int_lb_[v], int_ub_[v]);
      }
    }
  }

  MipResult Run();

 private:
  // Applies the bound-change chain of `node` onto work_ (after resetting
  // integer-variable bounds to the base model's, rounded inward).
  // Returns false, leaving work_ partly updated, when the node's box is
  // empty: a chain whose changes cross, or a base box without an integer.
  bool ApplyBounds(int node);
  // Picks the most fractional integer variable; -1 if integral.
  int PickBranchVariable(const std::vector<double>& x) const;
  double PruneThreshold() const;
  bool IsIntegral(const std::vector<double>& x) const;
  // Rounds the integer columns of *x to the nearest integer and reports
  // whether the rounded point still satisfies work_ within kAcceptTol.
  // A point inside the integrality tolerance can round across a row
  // (0.9999997 * 35 Mbps fits a budget that 35 Mbps breaks).
  bool SnapFeasible(std::vector<double>* x) const;
  // Branching column for an integral point that SnapFeasible rejected:
  // the integer column furthest from its rounded value among those whose
  // node bounds still hold two integers; -1 if every one is pinned.
  // *split receives the down child's upper bound (the rounded value,
  // clamped into the bounds); the up child starts at *split + 1.
  int PickSnapVariable(const std::vector<double>& x, double* split) const;
  void MaybeUpdateIncumbent(const std::vector<double>& x, double obj);
  // Processes one node; pushes children onto the queue / plunge slot.
  // Returns the node index to plunge into next, or -1.
  int ProcessNode(int node_index);
  // Aggressive rounding dive from a fractional LP point: fixes every
  // near-integral binary, rounds the most fractional one, re-solves, and
  // repeats. Installs an incumbent when it bottoms out integral. This is
  // how good solutions appear long before the branching tree would reach
  // them — the role CPLEX's feasibility heuristics play for the paper's
  // tight per-query timeouts.
  void DivingHeuristic(const std::vector<double>& start);
  double QueueBestBound() const;

  const Model& base_;
  SolverOptions options_;
  lp::Model work_;  // mutable copy; lazy cuts append rows here
  // One LP engine for every relaxation of this solve: each node, dive,
  // lazy-cut and root-cut re-solve starts from the basis and inverse the
  // previous one left (plunging makes consecutive LPs near-identical).
  lp::SimplexEngine engine_;
  // Integer columns' bounds rounded inward (RoundIntegerBounds); entries
  // of continuous columns are unused. empty_box_: some integer column's
  // rounded bounds cross.
  std::vector<double> int_lb_, int_ub_;
  bool empty_box_ = false;

  std::vector<Node> arena_;
  std::priority_queue<QueueEntry> open_;
  std::vector<double> incumbent_;
  double incumbent_obj_ = -lp::kInf;
  bool have_incumbent_ = false;
  double root_bound_ = lp::kInf;
  int64_t nodes_ = 0;
  int64_t rejected_candidates_ = 0;
};

bool BranchAndBound::ApplyBounds(int node) {
  if (empty_box_) return false;
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (base_.integer[v]) work_.SetVariableBounds(v, int_lb_[v], int_ub_[v]);
  }
  for (int cur = node; cur >= 0; cur = arena_[cur].parent) {
    if (arena_[cur].parent < 0) break;  // root carries no change
    const BoundChange& bc = arena_[cur].change;
    const double lb = std::max(work_.variable_lb(bc.var), bc.lb);
    const double ub = std::min(work_.variable_ub(bc.var), bc.ub);
    if (lb > ub) return false;
    work_.SetVariableBounds(bc.var, lb, ub);
  }
  return true;
}

int BranchAndBound::PickBranchVariable(const std::vector<double>& x) const {
  // Lexicographic: highest branching-priority class first, then the most
  // fractional variable weighted by objective importance within it.
  int best = -1;
  int best_priority = INT_MIN;
  double best_score = -1.0;
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (!base_.integer[v]) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= options_.integrality_tol) continue;
    const int priority = v < static_cast<int>(base_.branch_priority.size())
                             ? base_.branch_priority[v]
                             : 0;
    const double score =
        dist * (1.0 + std::sqrt(std::abs(base_.lp.objective(v))));
    if (priority > best_priority ||
        (priority == best_priority && score > best_score)) {
      best_priority = priority;
      best_score = score;
      best = v;
    }
  }
  return best;
}

double BranchAndBound::PruneThreshold() const {
  if (!have_incumbent_) return -lp::kInf;
  return incumbent_obj_ +
         std::max(options_.gap_abs,
                  options_.gap_rel * std::abs(incumbent_obj_));
}

bool BranchAndBound::IsIntegral(const std::vector<double>& x) const {
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (!base_.integer[v]) continue;
    const double frac = x[v] - std::floor(x[v]);
    if (std::min(frac, 1.0 - frac) > options_.integrality_tol) return false;
  }
  return true;
}

bool BranchAndBound::SnapFeasible(std::vector<double>* x) const {
  // Snapped values let downstream plan extraction compare against 0/1
  // without tolerances.
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (base_.integer[v]) (*x)[v] = std::round((*x)[v]);
  }
  return work_.CheckFeasible(*x, kAcceptTol).ok();
}

int BranchAndBound::PickSnapVariable(const std::vector<double>& x,
                                     double* split) const {
  // The LP may leave a basic column up to feasibility_tol outside its
  // box (1 + 5e-8 for a binary), so floor/ceil of the value can cross
  // the bounds. Splitting at the rounded value clamped into
  // [ceil(lb), floor(ub) - 1] gives two non-empty children, each smaller
  // than the node, that together keep every integer point of the box.
  int best = -1;
  double best_dist = -1.0;
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (!base_.integer[v]) continue;
    const double lo = std::ceil(work_.variable_lb(v));
    const double hi = std::floor(work_.variable_ub(v));
    if (!(hi - lo >= 1.0)) continue;
    const double rounded = std::round(x[v]);
    const double dist = std::abs(x[v] - rounded);
    if (dist > best_dist) {
      best_dist = dist;
      best = v;
      *split = std::clamp(rounded, lo, hi - 1.0);
    }
  }
  return best;
}

void BranchAndBound::MaybeUpdateIncumbent(const std::vector<double>& x,
                                          double obj) {
  if (have_incumbent_ && obj <= incumbent_obj_) return;
  incumbent_ = x;
  incumbent_obj_ = obj;
  have_incumbent_ = true;
}

double BranchAndBound::QueueBestBound() const {
  return open_.empty() ? -lp::kInf : open_.top().bound;
}

void BranchAndBound::DivingHeuristic(const std::vector<double>& start) {
  SQPR_TRACE_SPAN_ARGS(span, "milp/dive", "rounds", "incumbent");
  const int n = base_.lp.num_variables();
  // Work on a private copy of the current bounds (includes lazy cuts via
  // work_ rows; variable bounds here are the *root* bounds).
  std::vector<std::pair<double, double>> saved(n);
  for (int v = 0; v < n; ++v) {
    saved[v] = {work_.variable_lb(v), work_.variable_ub(v)};
  }
  std::vector<double> x = start;
  uint64_t rounds = 0;
  bool found = false;

  const int max_rounds = 2 * n + 10;
  for (int round = 0; round < max_rounds; ++round) {
    if (options_.deadline.Expired()) break;
    ++rounds;
    // Fix near-integral binaries; round the most important fractional one.
    int frac_var = -1;
    int frac_priority = INT_MIN;
    double frac_score = -1.0;
    for (int v = 0; v < n; ++v) {
      if (!base_.integer[v]) continue;
      if (work_.variable_lb(v) == work_.variable_ub(v)) continue;
      const double frac = x[v] - std::floor(x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= options_.integrality_tol) continue;
      const int priority = v < static_cast<int>(base_.branch_priority.size())
                               ? base_.branch_priority[v]
                               : 0;
      const double score =
          dist * (1.0 + std::sqrt(std::abs(base_.lp.objective(v))));
      if (priority > frac_priority ||
          (priority == frac_priority && score > frac_score)) {
        frac_priority = priority;
        frac_score = score;
        frac_var = v;
      }
    }
    double rounded_to = 0.0;
    if (frac_var >= 0) {
      // Round up when the variable carries positive objective (SQPR
      // admission) or meaningful fractional mass: covering-style models
      // need the mass committed, not shaved.
      const bool up = base_.lp.objective(frac_var) > 1e-9 ||
                      (x[frac_var] - std::floor(x[frac_var])) >= 0.2;
      rounded_to = up ? std::ceil(x[frac_var]) : std::floor(x[frac_var]);
      work_.SetVariableBounds(frac_var, rounded_to, rounded_to);
    }

    lp::SimplexResult rel = engine_.Solve(work_);
    for (int pass = 0; pass < 3 && rel.status == lp::SolveStatus::kOptimal &&
                       options_.lazy != nullptr;
         ++pass) {
      if (options_.lazy->AddFractionalCuts(rel.values, &work_) == 0) break;
      rel = engine_.Solve(work_);
    }
    if (rel.status == lp::SolveStatus::kInfeasible && frac_var >= 0) {
      // The rounding direction broke feasibility: try the other side
      // before giving up on the dive.
      const double flipped =
          rounded_to > x[frac_var] ? std::floor(x[frac_var])
                                   : std::ceil(x[frac_var]);
      work_.SetVariableBounds(frac_var, flipped, flipped);
      rel = engine_.Solve(work_);
    }
    if (rel.status != lp::SolveStatus::kOptimal) break;
    x = rel.values;
    if (IsIntegral(x)) {
      bool cuts_ok = true;
      if (options_.lazy != nullptr) {
        cuts_ok = options_.lazy->AddViolatedCuts(x, &work_) == 0;
      }
      if (!cuts_ok) continue;  // cycle cuts added: keep diving against them
      std::vector<double> snapped = x;
      found = SnapFeasible(&snapped);
      if (found) MaybeUpdateIncumbent(snapped, rel.objective);
      break;
    }
  }
  span.set_args(rounds, found ? 1 : 0);

  for (int v = 0; v < n; ++v) {
    work_.SetVariableBounds(v, saved[v].first, saved[v].second);
  }
}

int BranchAndBound::ProcessNode(int node_index) {
  SQPR_TRACE_SPAN_ARGS(span, "milp/node", "node", "arena_index");
  span.set_args(static_cast<uint64_t>(nodes_),
                static_cast<uint64_t>(node_index));
  ++nodes_;
  if (!ApplyBounds(node_index)) return -1;  // empty box: prune

  lp::SimplexResult rel = engine_.Solve(work_);
  // Fractional cut separation loop: tighten the relaxation in place
  // while the handler keeps finding violated rows.
  for (int pass = 0; pass < 5 && rel.status == lp::SolveStatus::kOptimal &&
                     options_.lazy != nullptr;
       ++pass) {
    if (options_.lazy->AddFractionalCuts(rel.values, &work_) == 0) break;
    rel = engine_.Solve(work_);
  }

  switch (rel.status) {
    case lp::SolveStatus::kInfeasible:
      return -1;  // prune
    case lp::SolveStatus::kUnbounded:
      // The SQPR models are always bounded; treat as numerical failure of
      // this node and prune conservatively only if we have an incumbent.
      SQPR_LOG_WARN << "unbounded node relaxation (numerical); pruning";
      return -1;
    case lp::SolveStatus::kIterationLimit:
    case lp::SolveStatus::kTimeLimit: {
      // The relaxation was not solved to optimality: its objective is not
      // a valid dual bound. Keep the parent's bound and branch on the
      // current iterate if it is available; otherwise drop the node.
      break;
    }
    case lp::SolveStatus::kOptimal:
      arena_[node_index].bound = rel.objective;
      break;
  }

  if (node_index == 0 && rel.status == lp::SolveStatus::kOptimal &&
      options_.cuts.enable && !IsIntegral(rel.values)) {
    // Root cutting-plane loop (cut-and-branch): separate, re-solve with
    // the cut rows bordered onto the engine's inverse, repeat while the
    // relaxation keeps moving.
    SQPR_TRACE_SPAN_ARGS(cut_span, "milp/root_cuts", "rounds", "cuts_added");
    uint64_t cut_rounds = 0, cuts_added = 0;
    CutGenerator cg(base_.integer, options_.cuts);
    for (int round = 0; round < options_.cuts.max_rounds; ++round) {
      if (options_.deadline.Expired()) break;
      const int separated = cg.Separate(rel.values, &work_);
      if (separated == 0) break;
      ++cut_rounds;
      cuts_added += static_cast<uint64_t>(separated);
      cut_span.set_args(cut_rounds, cuts_added);
      lp::SimplexResult tightened = engine_.Solve(work_);
      if (tightened.status != lp::SolveStatus::kOptimal) break;
      rel = std::move(tightened);
      arena_[node_index].bound = rel.objective;
      if (IsIntegral(rel.values)) break;
    }
  }

  const double node_bound = arena_[node_index].bound;
  if (node_index == 0 && rel.status == lp::SolveStatus::kOptimal) {
    root_bound_ = rel.objective;
    // The dive runs even when a warm-start incumbent is in hand: on the
    // hot-started engine it costs a few re-solves, and its incumbent is
    // usually better than the previous plan, so it prunes more.
    if (!IsIntegral(rel.values)) DivingHeuristic(rel.values);
  }
  if (node_bound <= PruneThreshold()) {
    return -1;  // cannot improve on the incumbent beyond the gap
  }

  const std::vector<double>& x = rel.values;
  if (x.empty()) return -1;

  if (IsIntegral(x)) {
    if (options_.lazy != nullptr) {
      const int cuts = options_.lazy->AddViolatedCuts(x, &work_);
      if (cuts > 0) {
        // Lazy rows are global: also append them to every future node by
        // keeping them in work_ (ApplyBounds only resets bounds, never
        // rows). Re-solve this node against the strengthened relaxation.
        return node_index;
      }
    }
    std::vector<double> snapped = x;
    if (SnapFeasible(&snapped)) {
      MaybeUpdateIncumbent(snapped, rel.objective);
      return -1;
    }
    // Rounding pushed a row past kAcceptTol: the point is not a plan.
    // Branch on the column that moved most, so the children pin it to
    // an exact integer on either side instead of losing the subtree.
    ++rejected_candidates_;
  }

  const bool snap = IsIntegral(x);
  double split = 0.0;
  const int branch_var =
      snap ? PickSnapVariable(x, &split) : PickBranchVariable(x);
  if (branch_var < 0) return -1;  // every integer column is pinned

  const double value = x[branch_var];
  const double down_ub = snap ? split : std::floor(value);
  const double up_lb = snap ? split + 1.0 : std::ceil(value);

  Node down;
  down.parent = node_index;
  down.change = {branch_var, -lp::kInf, down_ub};
  down.bound = node_bound;
  down.depth = arena_[node_index].depth + 1;

  Node up = down;
  up.change = {branch_var, up_lb, lp::kInf};

  const int down_index = static_cast<int>(arena_.size());
  arena_.push_back(down);
  const int up_index = static_cast<int>(arena_.size());
  arena_.push_back(up);

  // Plunge upward whenever the fractional part is non-negligible. In
  // covering-style models (SQPR: "some host must provide this") symmetric
  // LP optima spread mass thinly across equivalent choices; rounding a
  // 1/H fraction *down* merely reshuffles the spread, while rounding it
  // *up* commits to a concrete choice and reaches integrality in a
  // support-chain's worth of dives.
  const bool go_down = base_.lp.objective(branch_var) <= 1e-9 &&
                       (value - down_ub) < 0.2;
  const int near = go_down ? down_index : up_index;
  const int far = go_down ? up_index : down_index;
  open_.push({node_bound, far});
  return near;
}

MipResult BranchAndBound::Run() {
  Stopwatch watch;
  MipResult result;

  SQPR_CHECK(base_.integer.size() ==
             static_cast<size_t>(base_.lp.num_variables()))
      << "integrality mask size mismatch";

  if (options_.warm_start != nullptr) {
    const std::vector<double>& ws = *options_.warm_start;
    std::vector<double> snapped = ws;
    if (base_.lp.CheckFeasible(ws, kAcceptTol).ok() && IsIntegral(ws) &&
        SnapFeasible(&snapped)) {
      bool cuts_ok = true;
      if (options_.lazy != nullptr) {
        cuts_ok = options_.lazy->AddViolatedCuts(snapped, &work_) == 0;
      }
      if (cuts_ok) {
        MaybeUpdateIncumbent(snapped, base_.lp.ObjectiveValue(snapped));
      }
    }
  }

  arena_.push_back(Node{});  // root
  arena_[0].bound = lp::kInf;
  int current = 0;

  bool limit_hit = false;
  while (true) {
    if (current < 0) {
      if (open_.empty()) break;
      const QueueEntry top = open_.top();
      open_.pop();
      if (top.bound <= PruneThreshold()) {
        // Best-first: every remaining node is dominated too.
        break;
      }
      current = top.node;
    }
    if (nodes_ >= options_.max_nodes || options_.deadline.Expired()) {
      limit_hit = true;
      // The two limits can trip together; deadline expiry wins the
      // attribution — it is what the degraded-mode fallback keys on.
      result.deadline_hit = options_.deadline.Expired();
      break;
    }
    current = ProcessNode(current);
  }

  result.nodes = nodes_;
  result.lp_counters = engine_.counters();
  result.rejected_candidates = rejected_candidates_;
  result.wall_ms = watch.ElapsedMillis();

  double residual_bound = QueueBestBound();
  if (current >= 0) {
    residual_bound = std::max(residual_bound, arena_[current].bound);
  }
  if (limit_hit) {
    result.best_bound =
        std::isfinite(residual_bound)
            ? std::min(root_bound_, std::max(residual_bound, incumbent_obj_))
            : root_bound_;
    if (have_incumbent_) {
      result.status = MipStatus::kFeasible;
      result.x = incumbent_;
      result.objective = incumbent_obj_;
    } else {
      result.status = MipStatus::kNoSolution;
    }
    return result;
  }

  if (have_incumbent_) {
    result.status = MipStatus::kOptimal;
    result.x = incumbent_;
    result.objective = incumbent_obj_;
    result.best_bound = incumbent_obj_;
  } else {
    result.status = MipStatus::kInfeasible;
    result.best_bound = -lp::kInf;
  }
  return result;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "Optimal";
    case MipStatus::kFeasible:
      return "Feasible";
    case MipStatus::kInfeasible:
      return "Infeasible";
    case MipStatus::kNoSolution:
      return "NoSolution";
  }
  return "Unknown";
}

double MipResult::Gap() const {
  if (status == MipStatus::kOptimal) return 0.0;
  if (!has_solution()) return lp::kInf;
  const double denom = std::max(1.0, std::abs(objective));
  return (best_bound - objective) / denom;
}

namespace {

/// Bridges a user lazy handler (which thinks in original-space variable
/// indices) to the presolved relaxation: candidates are postsolved to
/// full space before the handler sees them, and rows the handler appends
/// to the accumulating full-space model are translated (pinned columns
/// folded into the bounds) and appended to the reduced relaxation.
class PresolvedLazyAdapter : public LazyConstraintHandler {
 public:
  PresolvedLazyAdapter(LazyConstraintHandler* inner, const Presolver* pre,
                       lp::Model* full_space)
      : inner_(inner), pre_(pre), full_space_(full_space) {
    if (inner_ == nullptr) return;
    // Pinned columns hold their values for the whole solve: write them
    // into the full-space point once; each call scatters only the
    // reduced columns over it.
    const int reduced_n = pre_->reduced().lp.num_variables();
    pre_->Postsolve(std::vector<double>(reduced_n, 0.0), &full_);
    kept_.resize(reduced_n);
    for (int v = 0; v < static_cast<int>(full_.size()); ++v) {
      if (pre_->column_map(v) >= 0) kept_[pre_->column_map(v)] = v;
    }
  }

  int AddViolatedCuts(const std::vector<double>& candidate,
                      lp::Model* relaxation) override {
    return Forward(candidate, relaxation, /*fractional=*/false);
  }

  int AddFractionalCuts(const std::vector<double>& point,
                        lp::Model* relaxation) override {
    return Forward(point, relaxation, /*fractional=*/true);
  }

 private:
  int Forward(const std::vector<double>& reduced_point, lp::Model* relaxation,
              bool fractional) {
    for (size_t r = 0; r < kept_.size(); ++r) {
      full_[kept_[r]] = reduced_point[r];
    }
    const int before = full_space_->num_rows();
    const int reported =
        fractional ? inner_->AddFractionalCuts(full_, full_space_)
                   : inner_->AddViolatedCuts(full_, full_space_);
    int appended = 0;
    for (int r = before; r < full_space_->num_rows(); ++r) {
      double lb, ub;
      pre_->TranslateRow(full_space_->row_terms(r), full_space_->row_lb(r),
                         full_space_->row_ub(r), &terms_, &lb, &ub);
      if (terms_.empty()) continue;  // cut only involves pinned columns
      relaxation->AddRow(lb, ub, terms_, full_space_->row_name(r));
      ++appended;
    }
    // Report the handler's own count when it appended nothing that
    // survives translation but still signalled violations: a violated
    // cut over pinned columns only means the pinned assignment itself is
    // off-limits, which the caller must treat as a rejection.
    return std::max(appended, reported > 0 && appended == 0 ? reported : 0);
  }

  LazyConstraintHandler* inner_;
  const Presolver* pre_;
  lp::Model* full_space_;
  // The full-space point (pinned columns written once), the original
  // column of each reduced column, and a translated-row scratch.
  std::vector<double> full_;
  std::vector<int> kept_;
  std::vector<std::pair<int, double>> terms_;
};

}  // namespace

MipResult Solver::Solve(const Model& model, const SolverOptions& caller_options) {
  // Degraded-mode wall budget: fold solve_deadline_ms into the deadline
  // once, up front, so both the presolve and no-presolve paths — and
  // every LP sub-solve, dive and cut round under them — inherit it.
  SolverOptions options = caller_options;
  if (options.solve_deadline_ms != 0) {
    const Deadline budget = Deadline::AfterMillis(options.solve_deadline_ms);
    if (!options.deadline.is_finite() ||
        budget.RemainingMillis() < options.deadline.RemainingMillis()) {
      options.deadline = budget;
    }
  }
  SQPR_TRACE_SPAN_ARGS(span, "milp/solve", "variables", "rows");
  span.set_args(static_cast<uint64_t>(model.lp.num_variables()),
                static_cast<uint64_t>(model.lp.num_rows()));
  if (!options.presolve) return BranchAndBound(model, options).Run();

  Presolver pre;
  PresolveStats pstats;
  {
    SQPR_TRACE_SPAN_ARGS(pre_span, "milp/presolve", "fixed_columns",
                         "removed_rows");
    pstats = pre.Apply(model);
    pre_span.set_args(static_cast<uint64_t>(pstats.fixed_columns),
                      static_cast<uint64_t>(pstats.removed_rows));
  }
  if (pstats.proven_infeasible) {
    MipResult result;
    result.status = MipStatus::kInfeasible;
    result.best_bound = -lp::kInf;
    return result;
  }

  if (pre.reduced().lp.num_variables() == 0) {
    // Everything is pinned: the unique candidate is the pinned point.
    MipResult result;
    pre.Postsolve({}, &result.x);
    lp::Model scratch = model.lp;
    if (options.lazy != nullptr &&
        options.lazy->AddViolatedCuts(result.x, &scratch) > 0) {
      result.x.clear();
      result.status = MipStatus::kInfeasible;
      result.best_bound = -lp::kInf;
      return result;
    }
    result.status = MipStatus::kOptimal;
    result.objective = pre.objective_constant();
    result.best_bound = result.objective;
    return result;
  }

  SolverOptions inner = options;
  std::vector<double> reduced_ws;
  inner.warm_start = nullptr;
  if (options.warm_start != nullptr &&
      pre.ProjectToReduced(*options.warm_start, &reduced_ws)) {
    inner.warm_start = &reduced_ws;
  }
  lp::Model full_space = model.lp;  // accumulates original-space lazy rows
  PresolvedLazyAdapter adapter(options.lazy, &pre, &full_space);
  if (options.lazy != nullptr) inner.lazy = &adapter;

  MipResult result = BranchAndBound(pre.reduced(), inner).Run();
  if (result.has_solution()) {
    std::vector<double> full;
    pre.Postsolve(result.x, &full);
    result.x = std::move(full);
    result.objective += pre.objective_constant();
  }
  if (std::isfinite(result.best_bound)) {
    result.best_bound += pre.objective_constant();
  }
  return result;
}

}  // namespace milp
}  // namespace sqpr
