// Cross-module integration tests: planner-produced MILPs through the
// MPS round-trip (regression: SQPR labels whole constraint families
// with one name, which must not merge rows on re-read), host-subset
// restricted models, and plan extraction under the hierarchical
// planner.

#include <gtest/gtest.h>

#include <set>

#include "milp/mps_io.h"
#include "milp/solver.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "plan/query_plan.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {
namespace {

struct ModelFixture {
  ModelFixture()
      : catalog(CostModel{}),
        cluster(3, HostSpec{1.0, 120.0, 120.0, ""}, 240.0) {
    a = catalog.AddBaseStream(0, 10.0, "a");
    b = catalog.AddBaseStream(1, 10.0, "b");
    c = catalog.AddBaseStream(2, 10.0, "c");
    abc = *catalog.CanonicalJoinStream({a, b, c});
    closure = *catalog.JoinClosure(abc);
  }

  Catalog catalog;
  Cluster cluster;
  StreamId a, b, c, abc;
  Closure closure;
};

TEST(IntegrationTest, SqprModelSurvivesMpsRoundTrip) {
  // Regression: every (III.7) potential row is named "acyc"; the MPS
  // writer must uniquify names or the reader merges the rows and the
  // model silently loses most of its acyclicity structure.
  ModelFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprModelOptions options;
  options.acyclicity = AcyclicityMode::kPotentials;  // self-contained
  SqprMip mip(dep, f.closure.streams, f.closure.operators,
              {{f.abc, false}}, options);

  const std::string text = milp::WriteMpsToString(mip.mip());
  Result<milp::Model> reread = milp::ReadMpsFromString(text);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->lp.num_rows(), mip.mip().lp.num_rows());
  ASSERT_EQ(reread->lp.num_variables(), mip.mip().lp.num_variables());
  for (int r = 0; r < reread->lp.num_rows(); ++r) {
    EXPECT_EQ(reread->lp.row_terms(r).size(),
              mip.mip().lp.row_terms(r).size())
        << "row " << r << " changed arity in the round-trip";
  }

  // Both models must solve to the same admission decision and value.
  milp::Solver solver;
  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(3000);
  const milp::MipResult direct = solver.Solve(mip.mip(), solver_options);
  solver_options.deadline = Deadline::AfterMillis(3000);
  const milp::MipResult replayed = solver.Solve(*reread, solver_options);
  ASSERT_TRUE(direct.has_solution());
  ASSERT_TRUE(replayed.has_solution());
  EXPECT_NEAR(direct.objective, replayed.objective, 1e-4);
}

TEST(IntegrationTest, HostSubsetPinsAllForeignDecisions) {
  ModelFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // Host 2 is excluded (but sources stream c).
  SqprMip mip(dep, f.closure.streams, f.closure.operators,
              {{f.abc, false}}, SqprModelOptions{}, {0, 1});

  // Every z/d variable on host 2 must be pinned to zero.
  for (OperatorId o : f.closure.operators) {
    const int z = mip.VarZ(2, o);
    if (z < 0) continue;
    EXPECT_DOUBLE_EQ(mip.mip().lp.variable_ub(z), 0.0) << "z op " << o;
  }
  const int d = mip.VarD(2, f.abc);
  if (d >= 0) {
    EXPECT_DOUBLE_EQ(mip.mip().lp.variable_ub(d), 0.0);
  }

  // A query whose leaves span all three hosts is unadmittable when the
  // excluded host cannot even export its base stream: flows out of host
  // 2 are pinned too, so the solver must reject.
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(3000);
  solver_options.lazy = &handler;
  milp::Solver solver;
  const milp::MipResult result = solver.Solve(mip.mip(), solver_options);
  ASSERT_TRUE(result.has_solution());
  EXPECT_FALSE(mip.Serves(result.x, f.abc));
}

TEST(IntegrationTest, SubsetWithSourceHostsAdmits) {
  // Same query, but the subset includes every leaf's source host: now a
  // plan exists and the extracted tree must satisfy C1-C4 and only use
  // subset hosts.
  ModelFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip(dep, f.closure.streams, f.closure.operators,
              {{f.abc, false}}, SqprModelOptions{}, {0, 1, 2});
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(5000);
  solver_options.lazy = &handler;
  milp::Solver solver;
  const milp::MipResult result = solver.Solve(mip.mip(), solver_options);
  ASSERT_TRUE(result.has_solution());
  ASSERT_TRUE(mip.Serves(result.x, f.abc));

  ASSERT_TRUE(dep.Apply(mip.SolutionDelta(result.x, dep)).ok());
  EXPECT_TRUE(dep.Validate().ok());
  Result<QueryPlan> plan = ExtractPlan(dep, f.abc);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan->NodeCount(), 3);  // at least two joins + leaves
}

TEST(IntegrationTest, MemoryRowsInteractWithSubset) {
  // Finite memory on a subset host must still produce a memory row for
  // it and none for hosts outside the subset whose z's are pinned
  // anyway (their rows may exist but are vacuous).
  Catalog catalog(CostModel{});
  std::vector<HostSpec> hosts(3, HostSpec{1.0, 120.0, 120.0, ""});
  hosts[0].mem_mb = 2.0;
  Cluster cluster(hosts, 240.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(1, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  const Closure closure = *catalog.JoinClosure(ab);

  Deployment dep(&cluster, &catalog);
  SqprMip mip(dep, closure.streams, closure.operators, {{ab, false}},
              SqprModelOptions{}, {0, 1});
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(3000);
  solver_options.lazy = &handler;
  milp::Solver solver;
  const milp::MipResult result = solver.Solve(mip.mip(), solver_options);
  ASSERT_TRUE(result.has_solution());
  if (mip.Serves(result.x, ab)) {
    ASSERT_TRUE(dep.Apply(mip.SolutionDelta(result.x, dep)).ok());
    EXPECT_TRUE(dep.Validate().ok());
    // Host 0 fits no 2.5 MB join window in 2 MB: the join must sit on
    // host 1.
    EXPECT_TRUE(dep.OperatorsOn(0).empty());
  }
}

}  // namespace
}  // namespace sqpr
