#include "lp/simplex.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/trace.h"

namespace sqpr {
namespace lp {
namespace {

constexpr double kPivotTol = 1e-9;
/// Pivot-row entries below this are rounding noise, not coefficients, in
/// the dual simplex's infeasibility certificate.
constexpr double kNoiseTol = 1e-11;
/// An exit whose primal residual max|A x| exceeds this (relative to the
/// largest value) refactorizes and re-checks before it is trusted.
constexpr double kResidualTol = 1e-9;

}  // namespace

/// Internal standard-form workspace:
///   columns 0..n-1    structural variables
///   columns n..n+m-1  row slacks (coefficient -1 in their row)
/// with every equation  A_full * v = 0. There are no artificial columns:
/// primal infeasibility is carried by out-of-bounds *basic* variables,
/// which the dual simplex or the composite primal phase 1 removes. That
/// is what lets every re-solve start from whatever basis the engine holds.
class SimplexEngine::Impl {
 public:
  explicit Impl(const SimplexOptions& options) : options_(options) {}

  SimplexResult Solve(const Model& model);
  const SimplexCounters& counters() const { return counters_; }

 private:
  enum class Step { kOptimal, kPivoted, kUnbounded, kSingular };

  // Model synchronisation.
  void Load(const Model& model);
  void Sync(const Model& model);
  void BuildColumns(const Model& model);
  void AppendRows(const Model& model);
  void SetBounds(int c, double lb, double ub);
  // Moves nonbasic column c to `state`, recording the value change in
  // shift_ for the next ApplyShift().
  void MoveNonbasic(int c, BasisState state);

  // Basis and factorization.
  bool InstallWarmBasis(const std::vector<BasisState>& warm);
  void InstallSlackBasis();
  void ResetToSlackBasis();
  // Rebuilds the dense basis inverse. Returns false when singular.
  bool Refactorize();
  void RecomputeBasicValues();
  // Applies the pending nonbasic value changes to the basic values.
  void ApplyShift();
  double NonbasicValue(int c) const;
  // Total primal infeasibility of basic variables.
  double Infeasibility() const;
  // max_i |(A_full v)_i|, relative to 1 + max|v|.
  double Residual() const;
  void Ftran(int col, std::vector<double>* w) const;
  // Reduced costs of all nonbasic columns into d_ under the basic cost
  // vector cb_ and per-column costs `column_cost` (nullptr = all-zero,
  // used by phase 1).
  void PriceAll(const double* column_cost);
  // Replaces basis_[leave_pos] by `enter` and updates the inverse from
  // the entering column's FTRAN `w`. Returns false on a tiny pivot.
  bool PivotBasis(int leave_pos, int enter, const std::vector<double>& w);
  // Counts a pivot; refactorizes every refactor_interval of them.
  bool CountPivot();

  // Solve loops.
  SolveStatus Run();
  // Prices the basis and flips boxed columns whose reduced cost has the
  // wrong sign. Returns false when a wrong-signed column cannot flip
  // (free, or one infinite bound): the start is not dual feasible.
  bool MakeDualFeasible();
  // Bounded dual simplex. Returns true with *status set when the solve is
  // decided (infeasible, or a limit); false when the basis is primal
  // feasible or the dual stalled, and the primal loop takes over.
  bool DualLoop(SolveStatus* status);
  // Whether rho_ (the dual pivot row of B^-1), applied to A_full v = 0,
  // proves that no v within the bounds exists (a Farkas certificate).
  bool ProvenInfeasibleRow() const;
  // |d_c| in the direction dual feasibility allows for nonbasic c.
  double DualSlack(int c) const;
  SolveStatus PrimalLoop();
  Step PrimalIterate(bool phase1, bool bland);
  bool LimitReached(SolveStatus* status) const;
  SimplexResult Finish(const Model& model, SolveStatus status) const;

  SimplexOptions options_;
  SimplexCounters counters_;
  bool loaded_ = false;
  bool slack_start_ = false;  // next solve starts from the slack basis
  int m_ = 0;                 // rows
  int n_ = 0;                 // structural columns
  double sense_ = 1.0;        // -1 maximise, +1 minimise

  // CSC storage of all columns.
  std::vector<int> col_start_;
  std::vector<int> entry_row_;
  std::vector<double> entry_val_;

  std::vector<double> lb_, ub_;     // per column
  std::vector<double> cost_;        // minimisation sense
  std::vector<BasisState> state_;   // per column
  std::vector<double> value_;       // per column current value
  std::vector<int> basis_;          // basis_[i] = column basic in row i
  std::vector<int> basic_pos_;      // basic_pos_[col] = row position or -1
  std::vector<double> binv_;        // m*m column-major: binv_[c*m + i]
  std::vector<double> shift_;       // A * (pending nonbasic value changes)
  bool shifted_ = false;

  // Per-iteration scratch, kept to avoid reallocation.
  std::vector<double> d_;       // reduced costs
  std::vector<double> alpha_;   // dual pivot row
  std::vector<int> candidates_;
  std::vector<double> cb_, y_, w_, rho_;
  std::vector<double> mat_;
  std::vector<int> perm_;

  int64_t iterations_ = 0;
  int64_t max_iterations_ = 0;
  int pivots_since_refactor_ = 0;
  int degenerate_run_ = 0;
};

// ------------------------------------------------------------- Loading

void SimplexEngine::Impl::BuildColumns(const Model& model) {
  const int n = n_;
  const int m = m_;
  std::vector<int> counts(n, 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& term : model.row_terms(r)) ++counts[term.first];
  }
  col_start_.assign(n + m + 1, 0);
  for (int c = 0; c < n; ++c) col_start_[c + 1] = col_start_[c] + counts[c];
  for (int c = n; c < n + m; ++c) {
    col_start_[c + 1] = col_start_[c] + 1;  // slack: one entry
  }
  const int nnz = col_start_[n + m];
  entry_row_.resize(nnz);
  entry_val_.resize(nnz);
  std::vector<int> fill(n, 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& [var, coef] : model.row_terms(r)) {
      const int pos = col_start_[var] + fill[var]++;
      entry_row_[pos] = r;
      entry_val_[pos] = coef;
    }
  }
  for (int i = 0; i < m; ++i) {
    const int pos = col_start_[n + i];
    entry_row_[pos] = i;
    entry_val_[pos] = -1.0;  // row activity - slack = 0
  }
}

void SimplexEngine::Impl::Load(const Model& model) {
  n_ = model.num_variables();
  m_ = model.num_rows();
  sense_ = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  BuildColumns(model);
  const int total = n_ + m_;
  lb_.resize(total);
  ub_.resize(total);
  cost_.assign(total, 0.0);
  for (int c = 0; c < n_; ++c) {
    lb_[c] = model.variable_lb(c);
    ub_[c] = model.variable_ub(c);
    cost_[c] = sense_ * model.objective(c);
  }
  for (int i = 0; i < m_; ++i) {
    lb_[n_ + i] = model.row_lb(i);
    ub_[n_ + i] = model.row_ub(i);
  }
  state_.assign(total, BasisState::kAtLower);
  value_.assign(total, 0.0);
  basic_pos_.assign(total, -1);
  shift_.assign(m_, 0.0);
  shifted_ = false;

  slack_start_ = options_.warm_basis == nullptr ||
                 !InstallWarmBasis(*options_.warm_basis);
  if (slack_start_) InstallSlackBasis();
  if (!Refactorize()) {
    // Singular warm basis: fall back to the always-regular slack basis.
    slack_start_ = true;
    InstallSlackBasis();
    const bool ok = Refactorize();
    SQPR_CHECK(ok) << "slack basis cannot be singular";
  }
  RecomputeBasicValues();
  loaded_ = true;
}

void SimplexEngine::Impl::Sync(const Model& model) {
  SQPR_CHECK(model.num_variables() == n_ && model.num_rows() >= m_)
      << "SimplexEngine re-solve of a different model: " << n_ << " columns, "
      << m_ << " rows loaded; " << model.num_variables() << " columns, "
      << model.num_rows() << " rows given";
  sense_ = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  for (int c = 0; c < n_; ++c) {
    const double lb = model.variable_lb(c);
    const double ub = model.variable_ub(c);
    if (lb != lb_[c] || ub != ub_[c]) SetBounds(c, lb, ub);
    cost_[c] = sense_ * model.objective(c);
  }
  for (int i = 0; i < m_; ++i) {
    const double lb = model.row_lb(i);
    const double ub = model.row_ub(i);
    if (lb != lb_[n_ + i] || ub != ub_[n_ + i]) SetBounds(n_ + i, lb, ub);
  }
  ApplyShift();
  if (model.num_rows() > m_) AppendRows(model);
}

void SimplexEngine::Impl::SetBounds(int c, double lb, double ub) {
  lb_[c] = lb;
  ub_[c] = ub;
  if (state_[c] == BasisState::kBasic) return;
  // Keep the column on a finite bound where it has one.
  const bool has_lb = std::isfinite(lb);
  const bool has_ub = std::isfinite(ub);
  BasisState st = state_[c];
  if (st == BasisState::kAtLower && !has_lb) {
    st = has_ub ? BasisState::kAtUpper : BasisState::kFree;
  } else if (st == BasisState::kAtUpper && !has_ub) {
    st = has_lb ? BasisState::kAtLower : BasisState::kFree;
  } else if (st == BasisState::kFree && (has_lb || has_ub)) {
    st = has_lb ? BasisState::kAtLower : BasisState::kAtUpper;
  }
  MoveNonbasic(c, st);
}

void SimplexEngine::Impl::MoveNonbasic(int c, BasisState state) {
  state_[c] = state;
  const double v = NonbasicValue(c);
  const double delta = v - value_[c];
  if (delta == 0.0) return;
  value_[c] = v;
  for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
    shift_[entry_row_[k]] += entry_val_[k] * delta;
  }
  shifted_ = true;
}

void SimplexEngine::Impl::ApplyShift() {
  if (!shifted_) return;
  // A_full v = 0 gives B x_B = -N x_N, so x_B moves by -B^-1 shift.
  const int m = m_;
  for (int r = 0; r < m; ++r) {
    const double s = shift_[r];
    if (s == 0.0) continue;
    const double* bcol = binv_.data() + static_cast<size_t>(r) * m;
    for (int i = 0; i < m; ++i) value_[basis_[i]] -= bcol[i] * s;
    shift_[r] = 0.0;
  }
  shifted_ = false;
}

void SimplexEngine::Impl::AppendRows(const Model& model) {
  const int old_m = m_;
  const int new_m = model.num_rows();
  m_ = new_m;
  BuildColumns(model);
  const int total = n_ + new_m;
  lb_.resize(total);
  ub_.resize(total);
  cost_.resize(total, 0.0);
  state_.resize(total, BasisState::kBasic);
  value_.resize(total, 0.0);
  basic_pos_.resize(total, -1);
  shift_.assign(new_m, 0.0);

  // The new slacks join the basis at the current row activity (outside
  // the row bounds when the row cuts the current point off).
  for (int i = old_m; i < new_m; ++i) {
    const int c = n_ + i;
    lb_[c] = model.row_lb(i);
    ub_[c] = model.row_ub(i);
    double activity = 0.0;
    for (const auto& [var, coef] : model.row_terms(i)) {
      activity += coef * value_[var];
    }
    value_[c] = activity;
    basic_pos_[c] = i;
    basis_.push_back(c);
  }

  // Border the inverse: with R the new rows restricted to the old basic
  // columns, B' = [B 0; R -I] and B'^-1 = [B^-1 0; R B^-1 -I].
  std::vector<double> grown(static_cast<size_t>(new_m) * new_m, 0.0);
  for (int r = 0; r < old_m; ++r) {
    std::copy_n(binv_.data() + static_cast<size_t>(r) * old_m, old_m,
                grown.data() + static_cast<size_t>(r) * new_m);
  }
  for (int i = old_m; i < new_m; ++i) {
    for (const auto& [var, coef] : model.row_terms(i)) {
      const int j = basic_pos_[var];
      if (j < 0) continue;
      for (int r = 0; r < old_m; ++r) {
        grown[static_cast<size_t>(r) * new_m + i] +=
            coef * binv_[static_cast<size_t>(r) * old_m + j];
      }
    }
    grown[static_cast<size_t>(i) * new_m + i] = -1.0;
  }
  binv_.swap(grown);
}

// ------------------------------------------------ Basis and factorization

double SimplexEngine::Impl::NonbasicValue(int c) const {
  switch (state_[c]) {
    case BasisState::kAtLower:
      return lb_[c];
    case BasisState::kAtUpper:
      return ub_[c];
    case BasisState::kFree:
      return 0.0;
    case BasisState::kBasic:
      break;
  }
  SQPR_LOG_FATAL << "NonbasicValue on basic column";
  return 0.0;
}

void SimplexEngine::Impl::InstallSlackBasis() {
  const int n = n_;
  const int m = m_;
  for (int c = 0; c < n; ++c) {
    if (std::isfinite(lb_[c]) && std::isfinite(ub_[c])) {
      state_[c] = (std::abs(lb_[c]) <= std::abs(ub_[c]))
                      ? BasisState::kAtLower
                      : BasisState::kAtUpper;
    } else if (std::isfinite(lb_[c])) {
      state_[c] = BasisState::kAtLower;
    } else if (std::isfinite(ub_[c])) {
      state_[c] = BasisState::kAtUpper;
    } else {
      state_[c] = BasisState::kFree;
    }
    basic_pos_[c] = -1;
  }
  basis_.resize(m);
  for (int i = 0; i < m; ++i) {
    const int slack = n + i;
    basis_[i] = slack;
    state_[slack] = BasisState::kBasic;
    basic_pos_[slack] = i;
  }
}

bool SimplexEngine::Impl::InstallWarmBasis(
    const std::vector<BasisState>& warm) {
  const int n = n_;
  const int m = m_;
  // A warm basis may come from the same model with fewer rows (lazy
  // cuts appended since): pad by making the new slacks basic. Any other
  // size mismatch is rejected.
  if (warm.size() < static_cast<size_t>(n) ||
      warm.size() > static_cast<size_t>(n + m)) {
    return false;
  }
  std::vector<BasisState> padded(warm);
  padded.resize(static_cast<size_t>(n + m), BasisState::kBasic);
  int basic_count = 0;
  for (BasisState s : padded) basic_count += s == BasisState::kBasic;
  if (basic_count != m) return false;
  basis_.clear();
  for (int c = 0; c < n + m; ++c) {
    state_[c] = padded[c];
    if (state_[c] == BasisState::kBasic) {
      basic_pos_[c] = static_cast<int>(basis_.size());
      basis_.push_back(c);
      continue;
    }
    // Nonbasic columns must rest on a finite bound; repair states that
    // no longer match the (possibly branched) bounds.
    if (state_[c] == BasisState::kAtLower && !std::isfinite(lb_[c])) {
      state_[c] = std::isfinite(ub_[c]) ? BasisState::kAtUpper
                                        : BasisState::kFree;
    } else if (state_[c] == BasisState::kAtUpper && !std::isfinite(ub_[c])) {
      state_[c] = std::isfinite(lb_[c]) ? BasisState::kAtLower
                                        : BasisState::kFree;
    }
    basic_pos_[c] = -1;
  }
  return true;
}

void SimplexEngine::Impl::ResetToSlackBasis() {
  InstallSlackBasis();
  const bool ok = Refactorize();
  SQPR_CHECK(ok) << "slack basis cannot be singular";
  RecomputeBasicValues();
  degenerate_run_ = 0;
}

bool SimplexEngine::Impl::Refactorize() {
  ++counters_.factorizations;
  const int m = m_;
  const size_t mm = static_cast<size_t>(m) * m;
  mat_.assign(mm, 0.0);
  for (int i = 0; i < m; ++i) {
    const int col = basis_[i];
    for (int k = col_start_[col]; k < col_start_[col + 1]; ++k) {
      mat_[static_cast<size_t>(i) * m + entry_row_[k]] = entry_val_[k];
    }
  }
  binv_.assign(mm, 0.0);
  for (int i = 0; i < m; ++i) binv_[static_cast<size_t>(i) * m + i] = 1.0;

  // Gauss-Jordan with partial pivoting; mat_ and binv_ share row ops.
  perm_.resize(m);
  for (int i = 0; i < m; ++i) perm_[i] = i;
  for (int k = 0; k < m; ++k) {
    int piv = -1;
    double best = kPivotTol;
    for (int r = 0; r < m; ++r) {
      if (perm_[r] < 0) continue;
      const double v = std::abs(mat_[static_cast<size_t>(k) * m + r]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (piv < 0) return false;  // numerically singular basis
    perm_[piv] = -1;
    const double p = mat_[static_cast<size_t>(k) * m + piv];
    for (int c = 0; c < m; ++c) {
      mat_[static_cast<size_t>(c) * m + piv] /= p;
      binv_[static_cast<size_t>(c) * m + piv] /= p;
    }
    for (int r = 0; r < m; ++r) {
      if (r == piv) continue;
      const double f = mat_[static_cast<size_t>(k) * m + r];
      if (f == 0.0) continue;
      for (int c = 0; c < m; ++c) {
        mat_[static_cast<size_t>(c) * m + r] -=
            f * mat_[static_cast<size_t>(c) * m + piv];
        binv_[static_cast<size_t>(c) * m + r] -=
            f * binv_[static_cast<size_t>(c) * m + piv];
      }
    }
    if (piv != k) {
      for (int c = 0; c < m; ++c) {
        std::swap(mat_[static_cast<size_t>(c) * m + piv],
                  mat_[static_cast<size_t>(c) * m + k]);
        std::swap(binv_[static_cast<size_t>(c) * m + piv],
                  binv_[static_cast<size_t>(c) * m + k]);
      }
      std::swap(perm_[piv], perm_[k]);
    }
  }
  pivots_since_refactor_ = 0;
  return true;
}

void SimplexEngine::Impl::RecomputeBasicValues() {
  const int m = m_;
  std::fill(shift_.begin(), shift_.end(), 0.0);
  for (int c = 0; c < n_ + m; ++c) {
    if (state_[c] == BasisState::kBasic) continue;
    const double v = NonbasicValue(c);
    value_[c] = v;
    if (v == 0.0) continue;
    for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
      shift_[entry_row_[k]] += entry_val_[k] * v;
    }
  }
  for (int i = 0; i < m; ++i) value_[basis_[i]] = 0.0;
  shifted_ = true;
  ApplyShift();
}

double SimplexEngine::Impl::Infeasibility() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int c = basis_[i];
    if (value_[c] > ub_[c]) total += value_[c] - ub_[c];
    if (value_[c] < lb_[c]) total += lb_[c] - value_[c];
  }
  return total;
}

double SimplexEngine::Impl::Residual() const {
  std::vector<double> row(m_, 0.0);
  double scale = 1.0;
  for (int c = 0; c < n_ + m_; ++c) {
    const double v = value_[c];
    if (v == 0.0) continue;
    scale = std::max(scale, std::abs(v));
    for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
      row[entry_row_[k]] += entry_val_[k] * v;
    }
  }
  double worst = 0.0;
  for (double r : row) worst = std::max(worst, std::abs(r));
  return worst / scale;
}

void SimplexEngine::Impl::Ftran(int col, std::vector<double>* w) const {
  const int m = m_;
  w->assign(m, 0.0);
  for (int k = col_start_[col]; k < col_start_[col + 1]; ++k) {
    const double a = entry_val_[k];
    const double* bcol =
        binv_.data() + static_cast<size_t>(entry_row_[k]) * m;
    for (int i = 0; i < m; ++i) (*w)[i] += a * bcol[i];
  }
}

void SimplexEngine::Impl::PriceAll(const double* column_cost) {
  const int m = m_;
  y_.resize(m);
  for (int c = 0; c < m; ++c) {
    const double* bcol = binv_.data() + static_cast<size_t>(c) * m;
    double acc = 0.0;
    for (int i = 0; i < m; ++i) acc += cb_[i] * bcol[i];
    y_[c] = acc;
  }
  const int total = n_ + m;
  d_.assign(total, 0.0);
  for (int c = 0; c < total; ++c) {
    if (state_[c] == BasisState::kBasic) continue;
    if (lb_[c] == ub_[c]) continue;  // fixed: never enters, skip price
    double dot = 0.0;
    for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
      dot += y_[entry_row_[k]] * entry_val_[k];
    }
    d_[c] = (column_cost != nullptr ? column_cost[c] : 0.0) - dot;
  }
}

bool SimplexEngine::Impl::PivotBasis(int leave_pos, int enter,
                                     const std::vector<double>& w) {
  const int m = m_;
  const int leave_col = basis_[leave_pos];
  basic_pos_[leave_col] = -1;
  basis_[leave_pos] = enter;
  state_[enter] = BasisState::kBasic;
  basic_pos_[enter] = leave_pos;

  const double piv = w[leave_pos];
  if (std::abs(piv) < kPivotTol / 10) return false;
  for (int c = 0; c < m; ++c) {
    double* bcol = binv_.data() + static_cast<size_t>(c) * m;
    const double pr = bcol[leave_pos] / piv;
    if (pr == 0.0) continue;
    for (int i = 0; i < m; ++i) {
      if (i == leave_pos) continue;
      bcol[i] -= w[i] * pr;
    }
    bcol[leave_pos] = pr;
  }
  return true;
}

bool SimplexEngine::Impl::CountPivot() {
  if (++pivots_since_refactor_ < options_.refactor_interval) return true;
  if (!Refactorize()) return false;
  RecomputeBasicValues();
  return true;
}

// --------------------------------------------------------- Solve loops

bool SimplexEngine::Impl::LimitReached(SolveStatus* status) const {
  if (iterations_ >= max_iterations_) {
    *status = SolveStatus::kIterationLimit;
    return true;
  }
  if ((iterations_ & 0x3f) == 0 && options_.deadline.Expired()) {
    *status = SolveStatus::kTimeLimit;
    return true;
  }
  return false;
}

bool SimplexEngine::Impl::MakeDualFeasible() {
  const int m = m_;
  cb_.resize(m);
  for (int i = 0; i < m; ++i) cb_[i] = cost_[basis_[i]];
  PriceAll(cost_.data());
  const double tol = options_.optimality_tol;
  candidates_.clear();  // columns to flip
  for (int c = 0; c < n_ + m; ++c) {
    const BasisState st = state_[c];
    if (st == BasisState::kBasic || lb_[c] == ub_[c]) continue;
    const double d = d_[c];
    bool wrong;
    bool can_flip;
    if (st == BasisState::kAtLower) {
      wrong = d < -tol;
      can_flip = std::isfinite(ub_[c]);
    } else if (st == BasisState::kAtUpper) {
      wrong = d > tol;
      can_flip = std::isfinite(lb_[c]);
    } else {
      wrong = std::abs(d) > tol;
      can_flip = false;
    }
    if (!wrong) continue;
    if (!can_flip) return false;
    candidates_.push_back(c);
  }
  for (int c : candidates_) {
    MoveNonbasic(c, state_[c] == BasisState::kAtLower ? BasisState::kAtUpper
                                                      : BasisState::kAtLower);
  }
  ApplyShift();
  return true;
}

bool SimplexEngine::Impl::ProvenInfeasibleRow() const {
  // rho^T A_full v = 0 holds for every solution v and any vector rho, so
  // the bound box must let sum_j (rho . a_j) v_j reach zero. The check
  // holds whatever drift rho carries; it only trusts rho as a
  // multiplier, never as an exact row of B^-1.
  double lo = 0.0, hi = 0.0, scale = 1.0;
  for (int c = 0; c < n_ + m_; ++c) {
    double g = 0.0;
    for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
      g += rho_[entry_row_[k]] * entry_val_[k];
    }
    if (std::abs(g) <= kNoiseTol) continue;
    scale = std::max(scale, std::abs(g));
    lo += g > 0 ? g * lb_[c] : g * ub_[c];
    hi += g > 0 ? g * ub_[c] : g * lb_[c];
  }
  const double tol = options_.feasibility_tol * scale;
  return lo > tol || hi < -tol;
}

double SimplexEngine::Impl::DualSlack(int c) const {
  switch (state_[c]) {
    case BasisState::kAtLower:
      return std::max(d_[c], 0.0);
    case BasisState::kAtUpper:
      return std::max(-d_[c], 0.0);
    default:
      return std::abs(d_[c]);
  }
}

bool SimplexEngine::Impl::DualLoop(SolveStatus* status) {
  const int m = m_;
  const int total = n_ + m;
  const double feas_tol = options_.feasibility_tol;
  const double opt_tol = options_.optimality_tol;
  int degenerate_run = 0;
  while (true) {
    if (LimitReached(status)) return true;

    // Leaving row: the basic variable furthest outside its bounds.
    int r = -1;
    double worst = feas_tol;
    for (int i = 0; i < m; ++i) {
      const int c = basis_[i];
      const double viol =
          std::max(lb_[c] - value_[c], value_[c] - ub_[c]);
      if (viol > worst) {
        worst = viol;
        r = i;
      }
    }
    if (r < 0) return false;  // primal feasible: optimal up to pricing
    const int leave = basis_[r];
    const bool to_lower = value_[leave] < lb_[leave];
    const double s = to_lower ? 1.0 : -1.0;

    // Pivot row alpha_j = (B^-1 a_j)_r over the nonbasic columns that can
    // move x_leave toward its violated bound, and the Harris bound on
    // the dual step.
    rho_.resize(m);
    for (int c = 0; c < m; ++c) {
      rho_[c] = binv_[static_cast<size_t>(c) * m + r];
    }
    alpha_.assign(total, 0.0);
    candidates_.clear();
    double harris = kInf;
    for (int c = 0; c < total; ++c) {
      const BasisState st = state_[c];
      if (st == BasisState::kBasic || lb_[c] == ub_[c]) continue;
      double a = 0.0;
      for (int k = col_start_[c]; k < col_start_[c + 1]; ++k) {
        a += rho_[entry_row_[k]] * entry_val_[k];
      }
      alpha_[c] = a;
      const double sa = s * a;
      const bool moves = st == BasisState::kAtLower  ? sa < -kPivotTol
                         : st == BasisState::kAtUpper ? sa > kPivotTol
                                                      : std::abs(sa) > kPivotTol;
      if (!moves) continue;
      candidates_.push_back(c);
      harris = std::min(harris, (DualSlack(c) + opt_tol) / std::abs(a));
    }
    if (candidates_.empty()) {
      // No column can move x_leave back inside its bounds.
      *status = SolveStatus::kInfeasible;
      return ProvenInfeasibleRow();
    }
    int enter = -1;
    double best_pivot = 0.0;
    for (int c : candidates_) {
      const double a = std::abs(alpha_[c]);
      if (DualSlack(c) / a > harris) continue;
      if (a > best_pivot) {
        best_pivot = a;
        enter = c;
      }
    }

    Ftran(enter, &w_);
    const double piv = w_[r];  // == alpha_[enter]: same inverse, same sum

    // Primal step: x_leave reaches its violated bound exactly.
    const double target = to_lower ? lb_[leave] : ub_[leave];
    const double t = (value_[leave] - target) / piv;
    for (int i = 0; i < m; ++i) {
      if (w_[i] != 0.0) value_[basis_[i]] -= t * w_[i];
    }
    const double enter_value = value_[enter] + t;

    // Dual step. A wrong-signed theta only comes from a reduced cost
    // inside the tolerance; treat it as zero.
    double theta = d_[enter] / alpha_[enter];
    if (s * theta > 0.0) theta = 0.0;
    if (theta != 0.0) {
      for (int c = 0; c < total; ++c) d_[c] -= theta * alpha_[c];
    }
    d_[leave] = -theta;
    d_[enter] = 0.0;
    degenerate_run = theta == 0.0 ? degenerate_run + 1 : 0;

    state_[leave] = to_lower ? BasisState::kAtLower : BasisState::kAtUpper;
    value_[leave] = target;
    value_[enter] = enter_value;
    ++iterations_;
    if (!PivotBasis(r, enter, w_) || !CountPivot()) {
      ResetToSlackBasis();
      return false;
    }
    // A refactorization recomputed the values; re-price from scratch.
    if (pivots_since_refactor_ == 0 && !MakeDualFeasible()) return false;
    // A long run of dual-degenerate pivots can cycle; the primal loop
    // (with Bland's rule) finishes from here.
    if (degenerate_run > 50 + m) return false;
  }
}

SimplexEngine::Impl::Step SimplexEngine::Impl::PrimalIterate(bool phase1,
                                                             bool bland) {
  const int m = m_;
  const double feas_tol = options_.feasibility_tol;
  const double opt_tol = options_.optimality_tol;

  // Basic cost vector: the composite phase-1 gradient (+1 above ub, -1
  // below lb) or the phase-2 objective restricted to the basis.
  cb_.resize(m);
  if (phase1) {
    for (int i = 0; i < m; ++i) {
      const int c = basis_[i];
      if (value_[c] > ub_[c] + feas_tol) {
        cb_[i] = 1.0;
      } else if (value_[c] < lb_[c] - feas_tol) {
        cb_[i] = -1.0;
      } else {
        cb_[i] = 0.0;
      }
    }
  } else {
    for (int i = 0; i < m; ++i) cb_[i] = cost_[basis_[i]];
  }
  PriceAll(phase1 ? nullptr : cost_.data());

  int enter = -1;
  int enter_dir = 0;
  double best_score = opt_tol;
  for (int c = 0; c < n_ + m; ++c) {
    const BasisState st = state_[c];
    if (st == BasisState::kBasic) continue;
    if (lb_[c] == ub_[c]) continue;
    const double d = d_[c];
    int dir = 0;
    if (st == BasisState::kAtLower && d < -opt_tol) {
      dir = +1;
    } else if (st == BasisState::kAtUpper && d > opt_tol) {
      dir = -1;
    } else if (st == BasisState::kFree && std::abs(d) > opt_tol) {
      dir = d < 0 ? +1 : -1;
    }
    if (dir == 0) continue;
    if (bland) {
      enter = c;
      enter_dir = dir;
      break;
    }
    if (std::abs(d) > best_score) {
      best_score = std::abs(d);
      enter = c;
      enter_dir = dir;
    }
  }
  if (enter < 0) return Step::kOptimal;  // no improving column this phase

  Ftran(enter, &w_);
  const std::vector<double>& w = w_;

  // Two-pass (Harris-style) ratio test. Out-of-bounds basic variables
  // (phase 1) contribute a breakpoint where they *reach* their violated
  // bound; feasible ones where they would leave their range. The second
  // pass picks the largest |pivot| among near-tied limits, which keeps
  // the basis well conditioned through degenerate pivot chains.
  const double range = ub_[enter] - lb_[enter];
  auto row_limit = [&](int i, double* g_out, int* to_upper) -> double {
    const double g = enter_dir * w[i];  // rate of decrease of basic value
    const int bcol = basis_[i];
    *g_out = g;
    const double v = value_[bcol];
    if (g > kPivotTol) {  // basic value decreasing
      if (v < lb_[bcol] - feas_tol) {
        // Already below its lower bound and moving further away: no
        // breakpoint — the phase-1 pricing charged for this movement.
        return kInf;
      }
      double target;
      if (v > ub_[bcol] + feas_tol) {
        target = ub_[bcol];  // infeasible above: stop once feasible
        *to_upper = 1;
      } else {
        if (!std::isfinite(lb_[bcol])) return kInf;
        target = lb_[bcol];
        *to_upper = 0;
      }
      return std::max(0.0, v - target) / g;
    }
    if (g < -kPivotTol) {  // basic value increasing
      if (v > ub_[bcol] + feas_tol) {
        return kInf;  // already above its upper bound, moving away
      }
      double target;
      if (v < lb_[bcol] - feas_tol) {
        target = lb_[bcol];  // infeasible below: stop once feasible
        *to_upper = 0;
      } else {
        if (!std::isfinite(ub_[bcol])) return kInf;
        target = ub_[bcol];
        *to_upper = 1;
      }
      return std::max(0.0, target - v) / (-g);
    }
    return kInf;
  };

  double min_limit = std::isfinite(range) ? range : kInf;
  for (int i = 0; i < m; ++i) {
    double g;
    int tu;
    min_limit = std::min(min_limit, row_limit(i, &g, &tu));
  }
  if (!std::isfinite(min_limit)) return Step::kUnbounded;

  const double tie_tol = 1e-9 + 1e-7 * min_limit;
  int leave_pos = -1;
  int leave_to_upper = 0;
  double best_pivot = 0.0;
  double limit = min_limit;
  for (int i = 0; i < m; ++i) {
    double g;
    int tu = 0;
    const double a = row_limit(i, &g, &tu);
    if (a > min_limit + tie_tol) continue;
    if (std::abs(g) > best_pivot) {
      best_pivot = std::abs(g);
      leave_pos = i;
      leave_to_upper = tu;
      limit = std::max(0.0, a);
    }
  }
  const bool bound_flip =
      leave_pos < 0 ||
      (std::isfinite(range) && range <= min_limit + tie_tol &&
       range <= limit);
  if (bound_flip) limit = range;

  degenerate_run_ = (limit < 1e-10) ? degenerate_run_ + 1 : 0;

  const double alpha = limit;
  for (int i = 0; i < m; ++i) {
    if (w[i] != 0.0) value_[basis_[i]] -= enter_dir * alpha * w[i];
  }
  const double enter_val = value_[enter] + enter_dir * alpha;

  if (bound_flip) {
    state_[enter] =
        enter_dir > 0 ? BasisState::kAtUpper : BasisState::kAtLower;
    value_[enter] = NonbasicValue(enter);
    return Step::kPivoted;
  }

  const int leave_col = basis_[leave_pos];
  state_[leave_col] =
      leave_to_upper ? BasisState::kAtUpper : BasisState::kAtLower;
  value_[leave_col] = NonbasicValue(leave_col);
  value_[enter] = enter_val;
  if (!PivotBasis(leave_pos, enter, w)) return Step::kSingular;
  return CountPivot() ? Step::kPivoted : Step::kSingular;
}

SolveStatus SimplexEngine::Impl::PrimalLoop() {
  const double feas_tol = options_.feasibility_tol;
  int resets = 0;
  SolveStatus status;
  while (true) {
    if (LimitReached(&status)) return status;

    const bool phase1 = Infeasibility() > feas_tol;
    const bool bland = degenerate_run_ > 40 || resets > 1;
    const Step step = PrimalIterate(phase1, bland);
    ++iterations_;

    if (step == Step::kPivoted) continue;

    if (step == Step::kOptimal) {
      // Accuracy guard. Product-form updates and in-place bound shifts
      // carry across solves, so every exit measures the primal residual
      // and refactorizes when it has drifted; the recomputed values then
      // get a fresh pass (phase 1 if drift made them infeasible).
      if (pivots_since_refactor_ == 0 || Residual() <= kResidualTol) {
        // Phase-1 stall with residual infeasibility: LP is infeasible.
        return phase1 ? SolveStatus::kInfeasible : SolveStatus::kOptimal;
      }
      if (Refactorize()) {
        RecomputeBasicValues();
        continue;
      }
      // Singular at the guard: fall through to reset.
    } else if (step == Step::kUnbounded) {
      if (!phase1) return SolveStatus::kUnbounded;
      // An unbounded phase-1 ray is numerical nonsense; reset.
    }

    // Singular basis or numerical trouble: reset to the slack basis.
    if (++resets > 4) {
      SQPR_LOG_WARN << "simplex giving up after repeated singular bases";
      return SolveStatus::kIterationLimit;
    }
    ResetToSlackBasis();
  }
}

SolveStatus SimplexEngine::Impl::Run() {
  iterations_ = 0;
  degenerate_run_ = 0;
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 200LL * (m_ + n_) + 2000;
  // The start basis picks the method: dual simplex when bound flips make
  // it dual feasible, the composite primal otherwise.
  if (MakeDualFeasible()) {
    ++counters_.dual_solves;
    SolveStatus status;
    if (DualLoop(&status)) return status;
  }
  return PrimalLoop();
}

SimplexResult SimplexEngine::Impl::Finish(const Model& model,
                                          SolveStatus status) const {
  SimplexResult result;
  result.status = status;
  result.iterations = iterations_;
  result.values.assign(value_.begin(), value_.begin() + n_);
  result.objective = model.ObjectiveValue(result.values);
  result.basis_state = state_;
  return result;
}

SimplexResult SimplexEngine::Impl::Solve(const Model& model) {
  if (loaded_) {
    Sync(model);
  } else {
    Load(model);
  }
  const bool slack_start = slack_start_;
  slack_start_ = false;
  const SolveStatus status = Run();
  ++counters_.solves;
  counters_.iterations += iterations_;
  if (slack_start) {
    ++counters_.slack_starts;
    counters_.slack_start_iterations += iterations_;
  }
  return Finish(model, status);
}

// -------------------------------------------------------------- Public

SimplexEngine::SimplexEngine(SimplexOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

SimplexEngine::~SimplexEngine() = default;

SimplexResult SimplexEngine::Solve(const Model& model) {
  SQPR_TRACE_SPAN_ARGS(span, "lp/simplex", "iterations", "rows");
  SimplexResult result = impl_->Solve(model);
  span.set_args(static_cast<uint64_t>(result.iterations),
                static_cast<uint64_t>(model.num_rows()));
  return result;
}

const SimplexCounters& SimplexEngine::counters() const {
  return impl_->counters();
}

SimplexResult SimplexSolver::Solve(const Model& model) {
  SimplexEngine engine(options_);
  return engine.Solve(model);
}

}  // namespace lp
}  // namespace sqpr
