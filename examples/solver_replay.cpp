// Capture-and-replay of a reduced SQPR planning model: build the MILP
// for one query submission, dump it to MPS (the format CPLEX consumes in
// the paper's setup) and LP text, then re-read the dump, check it is the
// same model, and solve both. The same .mps file feeds the standalone
// `sqpr_solve` CLI:
//
//   ./build/examples/solver_replay /tmp/sqpr_q.mps
//   ./build/sqpr_solve /tmp/sqpr_q.mps --no-cuts
//
// Build & run (without an argument the dump goes to sqpr_model.mps in
// the working directory):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/solver_replay

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "milp/mps_io.h"
#include "milp/solver.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"

using namespace sqpr;

namespace {

/// Compares everything MPS carries: sense, columns (bounds, objective,
/// integrality) and rows (bounds, terms). Branch priorities and names
/// are not part of the format. Returns the first difference, or "".
std::string FirstDifference(const milp::Model& a, const milp::Model& b) {
  if (a.lp.sense() != b.lp.sense()) return "objective sense";
  if (a.lp.num_variables() != b.lp.num_variables()) return "column count";
  if (a.lp.num_rows() != b.lp.num_rows()) return "row count";
  for (int v = 0; v < a.lp.num_variables(); ++v) {
    if (a.lp.variable_lb(v) != b.lp.variable_lb(v) ||
        a.lp.variable_ub(v) != b.lp.variable_ub(v)) {
      return "bounds of column " + std::to_string(v);
    }
    if (a.lp.objective(v) != b.lp.objective(v)) {
      return "objective of column " + std::to_string(v);
    }
    if (a.integer[v] != b.integer[v]) {
      return "integrality of column " + std::to_string(v);
    }
  }
  for (int r = 0; r < a.lp.num_rows(); ++r) {
    if (a.lp.row_lb(r) != b.lp.row_lb(r) || a.lp.row_ub(r) != b.lp.row_ub(r)) {
      return "bounds of row " + std::to_string(r);
    }
    // MPS stores terms by column: compare each row's terms in column order.
    auto sorted_terms = [](const milp::Model& m, int row) {
      std::vector<std::pair<int, double>> terms = m.lp.row_terms(row);
      std::sort(terms.begin(), terms.end());
      return terms;
    };
    if (sorted_terms(a, r) != sorted_terms(b, r)) {
      return "terms of row " + std::to_string(r);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "sqpr_model.mps";

  // A 3-host cluster and a 3-way join query sharing nothing yet.
  Cluster cluster(3, HostSpec{1.0, 120.0, 120.0, ""}, 240.0);
  Catalog catalog{CostModel{}};
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(1, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(2, 10.0, "c");
  const StreamId abc = *catalog.CanonicalJoinStream({a, b, c});
  const Closure closure = *catalog.JoinClosure(abc);

  Deployment deployment(&cluster, &catalog);
  SqprModelOptions options;
  options.acyclicity = AcyclicityMode::kPotentials;  // self-contained MPS
  SqprMip mip(deployment, closure.streams, closure.operators,
              {{abc, false}}, options);

  std::printf("reduced model for %s: %d variables, %d rows\n",
              catalog.stream(abc).name.c_str(), mip.mip().lp.num_variables(),
              mip.mip().lp.num_rows());

  const Status written = milp::WriteMpsFile(mip.mip(), path);
  if (!written.ok()) {
    std::printf("write failed: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (and %s.lp)\n", path.c_str(), path.c_str());
  (void)milp::WriteLpFile(mip.mip(), path + ".lp");

  Result<milp::Model> reread = milp::ReadMpsFile(path);
  if (!reread.ok()) {
    std::printf("re-read failed: %s\n", reread.status().ToString().c_str());
    return 1;
  }

  // Node-bounded solves: the same work on any machine. The re-read model
  // has no branch priorities, so its search may take another path and
  // end at another incumbent or status within the same node budget.
  milp::Solver solver;
  milp::SolverOptions solver_options;
  solver_options.max_nodes = 2000;
  const milp::MipResult direct = solver.Solve(mip.mip(), solver_options);
  const milp::MipResult replayed = solver.Solve(*reread, solver_options);
  std::printf("direct   : %-10s objective %.6f  (%lld nodes)\n",
              milp::MipStatusName(direct.status), direct.objective,
              static_cast<long long>(direct.nodes));
  std::printf("replayed : %-10s objective %.6f  (%lld nodes)\n",
              milp::MipStatusName(replayed.status), replayed.objective,
              static_cast<long long>(replayed.nodes));

  // Faithful: the dump re-reads as the same model, and the direct
  // solve's incumbent is a point of equal value in it.
  std::string difference = FirstDifference(mip.mip(), *reread);
  if (difference.empty() && direct.has_solution()) {
    if (!reread->lp.CheckFeasible(direct.x, 1e-6).ok() ||
        std::abs(reread->lp.ObjectiveValue(direct.x) - direct.objective) >
            1e-9) {
      difference = "the direct incumbent";
    }
  }
  if (!difference.empty()) {
    std::printf("round-trip MISMATCH: %s\n", difference.c_str());
    return 1;
  }
  std::printf("round-trip faithful\n");
  return 0;
}
