#include "lp/model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sqpr {
namespace lp {

namespace {

const std::string kNoName;

/// A name for messages: the given one, else "#<index>".
std::string Label(const std::string& name, int i) {
  return name.empty() ? "#" + std::to_string(i) : name;
}

}  // namespace

const std::string& Model::NameAt(const std::vector<std::string>& names,
                                 int i) {
  return static_cast<size_t>(i) < names.size() ? names[i] : kNoName;
}

void Model::SetName(std::vector<std::string>* names, int i,
                    std::string name) {
  if (name.empty()) return;
  names->resize(static_cast<size_t>(i) + 1);
  (*names)[i] = std::move(name);
}

int Model::AddVariable(double lb, double ub, double obj, std::string name) {
  SQPR_CHECK(lb <= ub) << "variable bounds crossed: [" << lb << ", " << ub
                       << "] for variable " << num_variables() << " "
                       << name;
  var_lb_.push_back(lb);
  var_ub_.push_back(ub);
  obj_.push_back(obj);
  SetName(&var_names_, num_variables() - 1, std::move(name));
  return num_variables() - 1;
}

int Model::AddRow(double lb, double ub,
                  std::vector<std::pair<int, double>> terms,
                  std::string name) {
  SQPR_CHECK(lb <= ub) << "row bounds crossed: [" << lb << ", " << ub
                       << "] for row " << num_rows() << " " << name;
  // Merge duplicate variable references and drop zero coefficients so the
  // solver sees each column at most once per row. `out` trails the read
  // position, so the merge runs in place.
  std::sort(terms.begin(), terms.end());
  size_t out = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    const auto [var, coef] = terms[i];
    SQPR_CHECK(var >= 0 && var < num_variables())
        << "row " << num_rows() << " " << name
        << " references unknown variable " << var;
    if (out > 0 && terms[out - 1].first == var) {
      terms[out - 1].second += coef;
    } else {
      terms[out++] = {var, coef};
    }
  }
  terms.resize(out);
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](const auto& t) { return t.second == 0.0; }),
              terms.end());
  row_lb_.push_back(lb);
  row_ub_.push_back(ub);
  rows_.push_back(std::move(terms));
  SetName(&row_names_, num_rows() - 1, std::move(name));
  return num_rows() - 1;
}

void Model::SetVariableBounds(int var, double lb, double ub) {
  SQPR_CHECK(lb <= ub) << "variable bounds crossed on update: [" << lb << ", "
                       << ub << "]";
  var_lb_[var] = lb;
  var_ub_[var] = ub;
}

void Model::SetRowBounds(int row, double lb, double ub) {
  SQPR_CHECK(row >= 0 && row < num_rows()) << "row index " << row;
  SQPR_CHECK(lb <= ub) << "row bounds crossed on update: [" << lb << ", " << ub
                       << "] for row " << row << " " << row_name(row);
  row_lb_[row] = lb;
  row_ub_[row] = ub;
}

double Model::ObjectiveValue(const std::vector<double>& v) const {
  SQPR_CHECK(static_cast<int>(v.size()) == num_variables());
  double total = 0.0;
  for (int i = 0; i < num_variables(); ++i) total += obj_[i] * v[i];
  return total;
}

Status Model::CheckFeasible(const std::vector<double>& v, double tol) const {
  if (static_cast<int>(v.size()) != num_variables()) {
    return Status::InvalidArgument("assignment size mismatch");
  }
  for (int i = 0; i < num_variables(); ++i) {
    if (v[i] < var_lb_[i] - tol || v[i] > var_ub_[i] + tol) {
      return Status::Infeasible("variable " + Label(variable_name(i), i) +
                                " = " +
                                std::to_string(v[i]) + " outside [" +
                                std::to_string(var_lb_[i]) + ", " +
                                std::to_string(var_ub_[i]) + "]");
    }
  }
  for (int r = 0; r < num_rows(); ++r) {
    double activity = 0.0;
    for (const auto& [var, coef] : rows_[r]) activity += coef * v[var];
    if (activity < row_lb_[r] - tol || activity > row_ub_[r] + tol) {
      return Status::Infeasible("row " + Label(row_name(r), r) +
                                " activity " +
                                std::to_string(activity) + " outside [" +
                                std::to_string(row_lb_[r]) + ", " +
                                std::to_string(row_ub_[r]) + "]");
    }
  }
  return Status::OK();
}

}  // namespace lp
}  // namespace sqpr
