// Standalone MILP solver CLI over the library's CPLEX-substitute stack
// (presolve + cutting planes + branch-and-bound). Reads free-format MPS;
// useful for replaying reduced SQPR models captured via WriteMpsFile and
// for exercising the solver on external instances.
//
// Usage:
//   sqpr_solve model.mps [--time-limit-ms N] [--max-nodes N]
//              [--no-presolve] [--no-cuts] [--write-lp out.lp]

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <string>

#include "milp/mps_io.h"
#include "milp/solver.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: sqpr_solve model.mps [--time-limit-ms N] "
               "[--max-nodes N] [--no-presolve] [--no-cuts] "
               "[--write-lp out.lp]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string path;
  std::string write_lp;
  sqpr::milp::SolverOptions options;
  int64_t time_limit_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--time-limit-ms" && i + 1 < argc) {
      time_limit_ms = std::atoll(argv[++i]);
    } else if (arg == "--max-nodes" && i + 1 < argc) {
      options.max_nodes = std::atoll(argv[++i]);
    } else if (arg == "--no-presolve") {
      options.presolve = false;
    } else if (arg == "--no-cuts") {
      options.cuts.enable = false;
    } else if (arg == "--write-lp" && i + 1 < argc) {
      write_lp = argv[++i];
    } else if (arg[0] == '-') {
      Usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  sqpr::Result<sqpr::milp::Model> model = sqpr::milp::ReadMpsFile(path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("read %s: %d variables (%d integer), %d rows\n", path.c_str(),
              model->lp.num_variables(),
              static_cast<int>(
                  std::count(model->integer.begin(), model->integer.end(),
                             true)),
              model->lp.num_rows());

  if (!write_lp.empty()) {
    const sqpr::Status st = sqpr::milp::WriteLpFile(*model, write_lp);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote LP-format copy to %s\n", write_lp.c_str());
  }

  if (time_limit_ms > 0) {
    options.deadline = sqpr::Deadline::AfterMillis(time_limit_ms);
  }
  sqpr::milp::Solver solver;
  const sqpr::milp::MipResult result = solver.Solve(*model, options);

  std::printf("status     %s\n", sqpr::milp::MipStatusName(result.status));
  if (result.has_solution()) {
    std::printf("objective  %.10g\n", result.objective);
    std::printf("bound      %.10g\n", result.best_bound);
    std::printf("gap        %.3g%%\n", 100.0 * result.Gap());
  }
  std::printf("nodes      %lld\n", static_cast<long long>(result.nodes));
  std::printf("lp iters   %lld\n",
              static_cast<long long>(result.lp_counters.iterations));
  std::printf("wall       %.1f ms\n", result.wall_ms);
  if (result.has_solution()) {
    std::printf("nonzero solution values:\n");
    for (int v = 0; v < model->lp.num_variables(); ++v) {
      if (result.x[v] != 0.0) {
        const std::string& name = model->lp.variable_name(v);
        std::printf("  %-24s %.10g\n",
                    name.empty() ? ("x" + std::to_string(v)).c_str()
                                 : name.c_str(),
                    result.x[v]);
      }
    }
  }
  return result.status == sqpr::milp::MipStatus::kNoSolution ? 3 : 0;
}
