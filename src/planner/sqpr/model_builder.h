#ifndef SQPR_PLANNER_SQPR_MODEL_BUILDER_H_
#define SQPR_PLANNER_SQPR_MODEL_BUILDER_H_

#include <vector>

#include "milp/solver.h"
#include "plan/deployment.h"

namespace sqpr {

/// How the acyclicity requirement of §III-B is enforced.
enum class AcyclicityMode {
  /// Violated cycle-elimination cuts (Σ_{(h,m)∈C} x_hms ≤ |C|−1) are
  /// added lazily on integral candidates. Equivalent integer feasible
  /// set to the potential formulation, far fewer rows up front.
  kLazyCycleCuts,
  /// The paper's literal potential constraints (III.7), all H²·S of
  /// them, with M = |H| + 2.
  kPotentials,
};

/// One demanded stream in the reduced model.
struct DemandSpec {
  StreamId stream = kInvalidStream;
  /// true → constraint (IV.9): Σ_h d_hs = 1 (already-admitted query that
  /// must not be dropped). false → Σ_h d_hs ≤ 1 (the new query; admission
  /// is what the objective maximises).
  bool must_serve = false;
};

/// Objective weights λ1..λ4 of (III.3). Non-positive entries are replaced
/// by the §IV-A defaults: λ1 = M (admission dominates), λ2 = 1/Σ_h β_h,
/// λ3 = 1/Σ_hm κ_hm, λ4 = 1. (The paper's λ3 scales CPU usage by total
/// link capacity — reproduced literally.)
struct ObjectiveWeights {
  double lambda1 = -1.0;
  double lambda2 = -1.0;
  double lambda3 = -1.0;
  double lambda4 = 1.0;
};

/// `w` with every defaulted entry replaced by its §IV-A value on
/// `cluster`. λ1 is the "sufficiently large" M = 100·(2 + λ4·max_h ζ_h):
/// admitting one query outweighs every resource term combined.
ObjectiveWeights ResolveWeights(ObjectiveWeights w, const Cluster& cluster);

struct SqprModelOptions {
  AcyclicityMode acyclicity = AcyclicityMode::kLazyCycleCuts;
  ObjectiveWeights weights;
  /// When false, hosts may only send streams they *generate* (base
  /// injection or a local producer operator) — the §II-C relay ablation.
  bool enable_relay = true;
};

/// Capacities the reduced model leaves to its decisions (§IV-A): each
/// host's budgets minus the committed load of everything *outside* the
/// relevant sets (the fixed variables), i.e. the committed load of the
/// relevant operators, flows and servings is added back, because the
/// model re-decides it. These are the right-hand sides of the CPU,
/// memory and NIC rows (III.6b-d); `link_extra` is the relevant flow
/// rate committed on each link, added back into (III.6a).
struct ResidualCapacity {
  std::vector<double> cpu, mem, nic_out, nic_in;  // per host
  std::vector<double> link_extra;                 // [from * H + to]
};

/// The residuals SqprMip builds its rows from. `streams` and `operators`
/// are the relevant sets, sorted and deduplicated.
ResidualCapacity ComputeResidualCapacity(
    const Deployment& base, const std::vector<StreamId>& streams,
    const std::vector<OperatorId>& operators);

/// Exact admission screen: true when no fresh query in `queries` can be
/// served by any plan the reduced model for (`streams`, `operators`)
/// would accept, so building and solving it can only reject them all.
/// Base-stream queries and queries with a producer outside `operators`
/// are never screened. Any other query q is *hopeless* (tol = 1e-6) if:
///  * dead leaf: some leaf s of q, injected at host g, has NIC-out budget
///    β_g < rate(s) − tol and CPU budget ζ_g < γ_o − tol for every o in
///    `operators` that reads s, and every composite in `streams` built
///    on s has all its producers in `operators` (checked: a join over a
///    filtered input is a producer no join closure holds). A failed host
///    has every budget zeroed. A batch this settles skips the residuals;
///  * or no host: for every producer o of q and host h, with
///    r = ComputeResidualCapacity, r.cpu[h] < γ_o − tol, or h's finite
///    memory budget has r.mem[h] < mem_o − tol for mem_o > 0, or
///    r.nic_out[h] < rate(q) − tol, or r.nic_in[h] < Σ rate(s) − tol over
///    o's base inputs s not injected at h.
///
/// Why the model implies this. Serving q needs y_hq = 1 (III.4a). Take a
/// composite t with y_ht = 1 and only relevant producers: it has no
/// injection and no fixed producer, and an availability pin still needs
/// a (III.5a) support, so t comes from a local z_ho or an inflow, which
/// needs t at the sender (III.5c). Flows are acyclic (cycle cuts on every
/// incumbent, or the (III.7) potentials), so some host h* has z_h*o = 1
/// for a producer o of t, and o's inputs at h* (III.5b).
///  * No host (t = q): γ_o ≤ r.cpu[h*], mem_o ≤ r.mem[h*] (III.6d); q
///    leaves h* by d_h*q or x_h*mq, rate(q) in its NIC-out row (III.6c);
///    each base input of o not injected at h* needs its own inflow,
///    rate(s) in its NIC-in row (III.6b).
///  * Dead leaf (t = q): an input of o contains s; if composite, it is in
///    `streams` with only relevant producers, so repeat. Join inputs have
///    fewer leaves and unary inputs were interned first, so this ends at
///    some o' reading s at a host h'. If h' = g, γ_o' ≤ r.cpu[g]; else s
///    reaches h' by inflows starting with some x_gms = 1, so rate(s) ≤
///    r.nic_out[g]. r.cpu[g] ≤ ζ_g and r.nic_out[g] ≤ β_g: residuals add
///    back only load that CpuUsed(g) and NicOutUsed(g) already hold.
/// Other row terms are non-negative and incumbents meet rows within 1e-6
/// (the solver's acceptance and Deployment::Validate's tolerance), so a
/// violation by more than tol excludes every incumbent. The greedy
/// fallback (CanPlaceOperator/CanServe at 1e-9, then Validate) needs the
/// same placements and flows; a committed stream it could reuse was
/// derived the same way, so g is already over budget and Validate fails.
/// The no-relay ablation, potentials and a §VII host subset only remove
/// points; reduce_problem = false only widens the relevant sets.
bool AdmissionHopeless(const Deployment& base,
                       const std::vector<StreamId>& streams,
                       const std::vector<OperatorId>& operators,
                       const std::vector<StreamId>& queries);

/// The reduced SQPR MILP for one planning round, together with the
/// variable layout needed to interpret solutions and to translate them
/// back into Deployment edits.
///
/// The model covers exactly the relevant streams S(q) and operators O(q)
/// (§IV-A problem reduction): everything else in the committed deployment
/// is folded in as residual capacities and availability pins rather than
/// as variables.
///
/// Construction is split into a *skeleton* and a *base-state* pass. The
/// skeleton — which variables and rows exist, their terms and objective
/// coefficients — depends only on the relevant sets, the
/// catalog's stream rates/operator costs and the cluster specs, never on
/// the committed deployment. The committed deployment only moves row
/// right-hand sides (residual capacities), availability pins (y bounds)
/// and the warm start. Rebind() re-runs just the base-state pass, which
/// is how a model cached for a grounded structure is patched between
/// rounds instead of rebuilt; both paths execute the same code, so a
/// rebound model is bit-identical to a fresh build by construction.
///
/// Variables and rows are unnamed; the index tables below say what each
/// one stands for. Lookups are flat: stream and operator positions by
/// binary search in the sorted relevant sets, variables by dense tables.
class SqprMip {
 public:
  /// Builds the reduced model.
  ///  * `base`      — the committed deployment (fixed state);
  ///  * `streams`   — relevant streams (closure union, sorted, deduped);
  ///  * `operators` — relevant operators;
  ///  * `demands`   — demanded streams with their (IV.9) flags; each
  ///                  demanded stream must be in `streams`;
  ///  * `host_subset` — §VII hierarchical decomposition: when non-empty,
  ///                  only the listed hosts may take new placements,
  ///                  flows or servings. Every fresh decision variable on
  ///                  other hosts is pinned to zero (committed
  ///                  availability pins are kept, so warm starts stay
  ///                  feasible), and presolve then eliminates the pinned
  ///                  columns, shrinking the model from H to |subset|
  ///                  hosts. Callers must include every host that
  ///                  carries relevant committed state, or the no-drop
  ///                  constraints can become unsatisfiable.
  SqprMip(const Deployment& base, std::vector<StreamId> streams,
          std::vector<OperatorId> operators, std::vector<DemandSpec> demands,
          const SqprModelOptions& options,
          const std::vector<HostId>& host_subset = {});

  milp::Model& mip() { return mip_; }
  const milp::Model& mip() const { return mip_; }

  // Variable lookups; -1 when the variable was pruned or does not exist.
  int VarD(HostId h, StreamId s) const;
  int VarX(HostId from, HostId to, StreamId s) const;
  int VarY(HostId h, StreamId s) const;
  int VarZ(HostId h, OperatorId o) const;
  /// Row of host h's memory budget (III.6d-shaped); -1 when the host's
  /// budget is unlimited or no relevant operator uses memory.
  int MemRow(HostId h) const;

  const std::vector<StreamId>& relevant_streams() const { return streams_; }
  const std::vector<OperatorId>& relevant_operators() const { return ops_; }
  const std::vector<DemandSpec>& demands() const { return demands_; }

  /// A warm-start assignment reproducing the committed deployment (the
  /// previous solution restricted to the relevant sets), which is always
  /// feasible for the new model and gives branch-and-bound an incumbent
  /// on arrival. Empty when the committed state is not representable
  /// (never happens for deployments produced by this planner).
  std::vector<double> WarmStart() const;

  /// Re-targets the model at a different committed deployment with the
  /// same grounded structure (identical relevant sets, catalog rates and
  /// cluster specs — callers key their cache on exactly that) by
  /// re-running the base-state pass: row right-hand sides, availability
  /// pins and nothing else. O(rows) instead of O(rows · terms) — no
  /// term rebuilding. After Rebind, WarmStart() operates against
  /// the new deployment, which must outlive the model.
  void Rebind(const Deployment& base);

  /// Deep structural + numeric equality against another built model:
  /// the variable and row layout tables (which host/stream/operator each
  /// index stands for), variable count/bounds/objective/integrality/
  /// priority and row count/bounds/terms. Used by the differential
  /// solver-equivalence harness to pin "incrementally patched == freshly
  /// built"; returns a description of the first mismatch.
  Status CheckModelEquals(const SqprMip& other) const;

  /// True when the candidate admits the demanded stream (Σ_h d_hs ≥ 1).
  bool Serves(const std::vector<double>& x, StreamId s) const;

  /// The minimal change turning `current` (the deployment the model was
  /// built from) into the integral solution `x`: relevant placements,
  /// flows and servings the solution drops or adds, nothing else. A
  /// relevant stream no demand covers ends up unserved.
  DeploymentDelta SolutionDelta(const std::vector<double>& x,
                                const Deployment& current) const;

  /// The minimal change turning `current` into `next` over the relevant
  /// sets only — for edits (the greedy fallback) that stay inside them.
  DeploymentDelta DeltaTo(const Deployment& current,
                          const Deployment& next) const;

  /// Lazy handler enforcing per-stream flow acyclicity via cycle cuts.
  /// Only used in kLazyCycleCuts mode. Integral candidates get exact
  /// separation; fractional LP points get heuristic separation (cycles
  /// among high-valued arcs), which prevents the relaxation from
  /// "creating" streams through near-integral self-sustaining loops.
  class CycleCutHandler : public milp::LazyConstraintHandler {
   public:
    explicit CycleCutHandler(const SqprMip* owner) : owner_(owner) {}
    int AddViolatedCuts(const std::vector<double>& candidate,
                        lp::Model* relaxation) override;
    int AddFractionalCuts(const std::vector<double>& point,
                          lp::Model* relaxation) override;

   private:
    // Shared separation: consider arcs with value > arc_threshold and
    // emit the cut only when actually violated by `point`.
    int Separate(const std::vector<double>& point, double arc_threshold,
                 lp::Model* relaxation);

    const SqprMip* owner_;
  };

 private:
  /// Base-dependent inputs of one ApplyBaseState() pass, recomputed from
  /// *base_ each time the model is (re)bound.
  struct BaseState {
    ResidualCapacity resid;
    std::vector<int> fixed_producer;  // [h * S' + si]
    std::vector<bool> pin_y;          // [h * S' + si]
  };

  /// Shared body of SolutionDelta/DeltaTo: the target state is given by
  /// `runs_after(h, o)`, `flows_after(s)` (flow list in target order)
  /// and `served_after(s)`.
  template <typename RunsOp, typename FlowsOf, typename ServedAt>
  DeploymentDelta RelevantDelta(const Deployment& current, RunsOp runs_after,
                                FlowsOf flows_after,
                                ServedAt served_after) const;

  int StreamIndex(StreamId s) const;
  int OpIndex(OperatorId o) const;
  /// Creates variables and rows (base-independent) and records the row
  /// indices the base-state pass patches.
  void BuildSkeleton();
  BaseState ComputeBaseState() const;
  /// Writes every base-dependent value: y bounds and the right-hand
  /// sides of avail/send/link/nic/cpu/mem/loadbal rows. Fresh builds and
  /// Rebind() both end here, so the two are indistinguishable.
  void ApplyBaseState();

  const Deployment* base_;
  std::vector<StreamId> streams_;
  std::vector<OperatorId> ops_;
  std::vector<DemandSpec> demands_;
  SqprModelOptions options_;
  // in_subset_[h]: h may take fresh decisions. Empty = every host may.
  std::vector<bool> in_subset_;

  milp::Model mip_;
  int num_hosts_ = 0;

  // Dense variable index tables (-1 = absent).
  std::vector<int> var_x_;  // [from * H + to] * S' + si
  std::vector<int> var_y_;  // h * S' + si
  std::vector<int> var_z_;  // h * O' + oi
  std::vector<int> var_p_;  // h * S' + si (potentials mode only)
  std::vector<int> var_d_;  // h * S' + si (demanded streams only)
  int var_t_ = -1;

  // Row indices patched by ApplyBaseState (-1 = row absent).
  std::vector<int> avail_rows_;    // m * S' + si
  std::vector<int> send_rows_;     // h * S' + si
  std::vector<int> send_fanout_;   // h * S' + si (valid where send row)
  std::vector<int> link_rows_;     // from * H + to
  std::vector<int> nic_in_rows_;   // per host
  std::vector<int> nic_out_rows_;  // per host
  std::vector<int> cpu_rows_;      // per host
  std::vector<int> mem_rows_;      // per host
  std::vector<int> loadbal_rows_;  // per host
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_SQPR_MODEL_BUILDER_H_
