#include "milp/cuts.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sqpr {
namespace milp {

void CutPool::Add(PooledCut cut) {
  std::sort(cut.terms.begin(), cut.terms.end());
  for (const PooledCut& have : cuts_) {
    if (have.lb == cut.lb && have.ub == cut.ub && have.terms == cut.terms) {
      return;
    }
  }
  if (cuts_.size() >= max_cuts_ && !cuts_.empty()) {
    cuts_.erase(cuts_.begin());
  }
  cuts_.push_back(std::move(cut));
}

void CutPool::InjectInto(lp::Model* lp) const {
  for (const PooledCut& cut : cuts_) {
    lp->AddRow(cut.lb, cut.ub, cut.terms, cut.name);
  }
}

CutGenerator::CutGenerator(std::vector<bool> integer, CutOptions options)
    : integer_(std::move(integer)), options_(options) {}

int CutGenerator::Separate(const std::vector<double>& x, lp::Model* work) {
  if (!options_.enable) return 0;
  const int m = work->num_rows();
  if (static_cast<int>(cover_used_.size()) < m) cover_used_.resize(m, false);
  int added = 0;

  for (int r = 0; r < m && added < options_.max_cuts_per_round; ++r) {
    if (cover_used_[r]) continue;
    // Normalise to  sum a_j x_j <= b  over binary columns with a_j > 0.
    // Rows with a finite lower bound are also usable after negation; we
    // handle the (dominant in SQPR) <= direction first and the negated
    // >= direction second.
    for (int dir = 0; dir < 2; ++dir) {
      const double bound = dir == 0 ? work->row_ub(r) : -work->row_lb(r);
      if (!std::isfinite(bound)) continue;
      const double sign = dir == 0 ? 1.0 : -1.0;
      bool eligible = true;
      std::vector<std::pair<int, double>> items;  // (var, a_j > 0)
      for (const auto& [v, coef] : work->row_terms(r)) {
        const double a = sign * coef;
        if (a == 0.0) continue;
        const bool binary = v < static_cast<int>(integer_.size()) &&
                            integer_[v] && work->variable_lb(v) >= 0.0 &&
                            work->variable_ub(v) <= 1.0;
        if (!binary || a < 0.0) {
          eligible = false;
          break;
        }
        items.emplace_back(v, a);
      }
      if (!eligible || items.size() < 2 || bound <= 0.0) continue;

      // Greedy cover seeded by the current LP point: take items with the
      // largest fractional mass until the weight budget is exceeded.
      std::sort(items.begin(), items.end(),
                [&](const auto& a, const auto& b) {
                  return x[a.first] > x[b.first];
                });
      std::vector<std::pair<int, double>> cover;
      double weight = 0.0;
      for (const auto& it : items) {
        cover.push_back(it);
        weight += it.second;
        if (weight > bound + 1e-9) break;
      }
      if (weight <= bound + 1e-9) continue;  // row not coverable

      // Minimalise: drop the smallest weights that keep it a cover
      // (required for the extended-cover inequality to be valid).
      std::sort(cover.begin(), cover.end(),
                [](const auto& a, const auto& b) {
                  return a.second < b.second;
                });
      for (size_t i = 0; i < cover.size();) {
        if (weight - cover[i].second > bound + 1e-9) {
          weight -= cover[i].second;
          cover.erase(cover.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
      if (cover.size() < 2) continue;

      // Extended cover: every item at least as heavy as the heaviest
      // cover member also gets coefficient 1.
      double max_weight = 0.0;
      for (const auto& [v, a] : cover) max_weight = std::max(max_weight, a);
      std::vector<int> members;
      for (const auto& [v, a] : cover) members.push_back(v);
      for (const auto& [v, a] : items) {
        if (a >= max_weight - 1e-12 &&
            std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }

      const double rhs = static_cast<double>(cover.size()) - 1.0;
      double lhs = 0.0;
      for (int v : members) lhs += x[v];
      if (lhs <= rhs + options_.min_violation) continue;

      std::vector<std::pair<int, double>> terms;
      terms.reserve(members.size());
      for (int v : members) terms.emplace_back(v, 1.0);
      work->AddRow(-lp::kInf, rhs, std::move(terms), "cover");
      cover_used_[r] = true;
      ++added;
      break;  // one cut per source row
    }
  }
  return added;
}

}  // namespace milp
}  // namespace sqpr
