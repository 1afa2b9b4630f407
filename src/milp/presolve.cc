#include "milp/presolve.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sqpr {
namespace milp {
namespace {

constexpr double kIntTol = 1e-6;
/// Bound and row tolerance of the reductions.
constexpr double kFeasibilityTol = 1e-9;
/// Passes of bound propagation before presolve stops.
constexpr int kMaxRounds = 20;

}  // namespace

void RoundIntegerBounds(double* lb, double* ub) {
  if (std::isfinite(*lb)) *lb = std::ceil(*lb - kIntTol);
  if (std::isfinite(*ub)) *ub = std::floor(*ub + kIntTol);
}

PresolveStats Presolver::Apply(const Model& model) {
  PresolveStats stats;
  const int n = model.lp.num_variables();
  const int m = model.lp.num_rows();

  std::vector<double> lb(n), ub(n);
  std::vector<bool> pinned(n, false);
  std::vector<bool> row_alive(m, true);
  for (int v = 0; v < n; ++v) {
    lb[v] = model.lp.variable_lb(v);
    ub[v] = model.lp.variable_ub(v);
    if (model.integer[v]) RoundIntegerBounds(&lb[v], &ub[v]);
  }

  // Row bounds are mutable: singleton absorption folds nothing here, but
  // the translation step later needs the *original* row bounds, so copy.
  std::vector<double> rlb(m), rub(m);
  for (int r = 0; r < m; ++r) {
    rlb[r] = model.lp.row_lb(r);
    rub[r] = model.lp.row_ub(r);
  }

  const double tol = kFeasibilityTol;
  bool changed = true;
  while (changed && stats.rounds < kMaxRounds) {
    changed = false;
    ++stats.rounds;

    for (int v = 0; v < n; ++v) {
      if (lb[v] > ub[v] + tol) {
        stats.proven_infeasible = true;
        return stats;
      }
    }

    for (int r = 0; r < m; ++r) {
      if (!row_alive[r]) continue;
      const auto& terms = model.lp.row_terms(r);

      // Singleton rows become variable bounds.
      if (terms.size() == 1) {
        const int v = terms[0].first;
        const double a = terms[0].second;
        if (a != 0.0) {
          double vlo = a > 0 ? rlb[r] / a : rub[r] / a;
          double vhi = a > 0 ? rub[r] / a : rlb[r] / a;
          if (std::isnan(vlo)) vlo = -lp::kInf;  // 0/0 from inf bounds
          if (std::isnan(vhi)) vhi = lp::kInf;
          if (vlo > lb[v] + tol) {
            lb[v] = vlo;
            changed = true;
            ++stats.tightened_bounds;
          }
          if (vhi < ub[v] - tol) {
            ub[v] = vhi;
            changed = true;
            ++stats.tightened_bounds;
          }
          if (model.integer[v]) RoundIntegerBounds(&lb[v], &ub[v]);
        }
        row_alive[r] = false;
        ++stats.singleton_rows;
        ++stats.removed_rows;
        continue;
      }

      // Activity range of the row under current bounds.
      double min_act = 0.0, max_act = 0.0;
      int min_inf = 0, max_inf = 0;  // contributors at infinity
      for (const auto& [v, a] : terms) {
        const double lo_c = a > 0 ? a * lb[v] : a * ub[v];
        const double hi_c = a > 0 ? a * ub[v] : a * lb[v];
        if (std::isfinite(lo_c)) {
          min_act += lo_c;
        } else {
          ++min_inf;
        }
        if (std::isfinite(hi_c)) {
          max_act += hi_c;
        } else {
          ++max_inf;
        }
      }
      const double row_min = min_inf > 0 ? -lp::kInf : min_act;
      const double row_max = max_inf > 0 ? lp::kInf : max_act;

      if (row_min > rub[r] + tol || row_max < rlb[r] - tol) {
        stats.proven_infeasible = true;
        return stats;
      }
      if (row_min >= rlb[r] - tol && row_max <= rub[r] + tol) {
        row_alive[r] = false;  // redundant under the bounds alone
        ++stats.removed_rows;
        continue;
      }

      // Bound propagation: x_v must keep the row satisfiable when every
      // other variable sits at its extreme.
      for (const auto& [v, a] : terms) {
        if (a == 0.0) continue;
        // Residual activity excluding v's own contribution.
        const double lo_c = a > 0 ? a * lb[v] : a * ub[v];
        const double hi_c = a > 0 ? a * ub[v] : a * lb[v];
        const bool lo_fin = std::isfinite(lo_c);
        const bool hi_fin = std::isfinite(hi_c);
        const double rest_min_inf = min_inf - (lo_fin ? 0 : 1);
        const double rest_max_inf = max_inf - (hi_fin ? 0 : 1);
        const double rest_min =
            rest_min_inf > 0 ? -lp::kInf : min_act - (lo_fin ? lo_c : 0.0);
        const double rest_max =
            rest_max_inf > 0 ? lp::kInf : max_act - (hi_fin ? hi_c : 0.0);

        double new_lb = -lp::kInf, new_ub = lp::kInf;
        if (std::isfinite(rub[r]) && std::isfinite(rest_min)) {
          const double limit = (rub[r] - rest_min) / a;
          if (a > 0) {
            new_ub = limit;
          } else {
            new_lb = limit;
          }
        }
        if (std::isfinite(rlb[r]) && std::isfinite(rest_max)) {
          const double limit = (rlb[r] - rest_max) / a;
          if (a > 0) {
            new_lb = std::max(new_lb, limit);
          } else {
            new_ub = std::min(new_ub, limit);
          }
        }
        if (model.integer[v]) RoundIntegerBounds(&new_lb, &new_ub);
        if (new_lb > lb[v] + tol) {
          lb[v] = new_lb;
          changed = true;
          ++stats.tightened_bounds;
        }
        if (new_ub < ub[v] - tol) {
          ub[v] = new_ub;
          changed = true;
          ++stats.tightened_bounds;
        }
      }
    }
  }

  // Pin columns whose bounds have collapsed.
  fixed_value_.assign(n, 0.0);
  col_map_.assign(n, -1);
  objective_constant_ = 0.0;
  for (int v = 0; v < n; ++v) {
    if (lb[v] > ub[v] + tol) {
      stats.proven_infeasible = true;
      return stats;
    }
    const bool pin = model.integer[v] ? lb[v] == ub[v]
                                      : (ub[v] - lb[v]) <= 1e-12;
    if (pin) {
      pinned[v] = true;
      fixed_value_[v] = model.integer[v] ? lb[v] : 0.5 * (lb[v] + ub[v]);
      objective_constant_ += model.lp.objective(v) * fixed_value_[v];
      ++stats.fixed_columns;
    }
  }

  // Emit the reduced model.
  reduced_ = Model();
  reduced_.lp.set_sense(model.lp.sense());
  for (int v = 0; v < n; ++v) {
    if (pinned[v]) continue;
    const int priority = v < static_cast<int>(model.branch_priority.size())
                             ? model.branch_priority[v]
                             : 0;
    col_map_[v] = reduced_.AddVariable(lb[v], ub[v], model.lp.objective(v),
                                       model.integer[v],
                                       model.lp.variable_name(v), priority);
  }
  for (int r = 0; r < m; ++r) {
    if (!row_alive[r]) continue;
    std::vector<std::pair<int, double>> terms;
    double new_lb, new_ub;
    TranslateRow(model.lp.row_terms(r), rlb[r], rub[r], &terms, &new_lb,
                 &new_ub);
    if (terms.empty()) {
      if (0.0 < new_lb - tol || 0.0 > new_ub + tol) {
        stats.proven_infeasible = true;
        return stats;
      }
      ++stats.removed_rows;
      continue;
    }
    reduced_.lp.AddRow(new_lb, new_ub, std::move(terms),
                       model.lp.row_name(r));
  }
  return stats;
}

void Presolver::Postsolve(const std::vector<double>& reduced_x,
                          std::vector<double>* full) const {
  full->resize(col_map_.size());
  for (size_t v = 0; v < col_map_.size(); ++v) {
    (*full)[v] = col_map_[v] >= 0 ? reduced_x[col_map_[v]] : fixed_value_[v];
  }
}

bool Presolver::ProjectToReduced(const std::vector<double>& full_x,
                                 std::vector<double>* reduced_x) const {
  reduced_x->assign(reduced_.lp.num_variables(), 0.0);
  for (size_t v = 0; v < col_map_.size(); ++v) {
    if (col_map_[v] >= 0) {
      (*reduced_x)[col_map_[v]] = full_x[v];
    } else if (std::abs(full_x[v] - fixed_value_[v]) > 1e-6) {
      return false;
    }
  }
  return true;
}

void Presolver::TranslateRow(
    const std::vector<std::pair<int, double>>& terms, double lb, double ub,
    std::vector<std::pair<int, double>>* reduced_terms, double* reduced_lb,
    double* reduced_ub) const {
  reduced_terms->clear();
  reduced_terms->reserve(terms.size());
  double shift = 0.0;
  for (const auto& [v, a] : terms) {
    if (col_map_[v] >= 0) {
      reduced_terms->emplace_back(col_map_[v], a);
    } else {
      shift += a * fixed_value_[v];
    }
  }
  *reduced_lb = std::isfinite(lb) ? lb - shift : lb;
  *reduced_ub = std::isfinite(ub) ? ub - shift : ub;
}

}  // namespace milp
}  // namespace sqpr
