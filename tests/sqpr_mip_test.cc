#include <gtest/gtest.h>

#include "milp/solver.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"

namespace sqpr {
namespace {

/// Two hosts, base streams a@0 and b@1, canonical join ab.
struct MipFixture {
  MipFixture()
      : catalog(CostModel{}),
        cluster(2, HostSpec{1.0, 100.0, 100.0, ""}, 500.0) {
    a = catalog.AddBaseStream(0, 10.0, "a");
    b = catalog.AddBaseStream(1, 10.0, "b");
    ab = *catalog.CanonicalJoinStream({a, b});
    closure = *catalog.JoinClosure(ab);
  }

  SqprMip Build(const Deployment& dep, bool must_serve = false,
                SqprModelOptions options = {}) {
    return SqprMip(dep, closure.streams, closure.operators,
                   {{ab, must_serve}}, options);
  }

  Catalog catalog;
  Cluster cluster;
  StreamId a, b, ab;
  Closure closure;
};

TEST(SqprMipTest, VariableLayoutComplete) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep);
  // y for every (host, stream), x for every ordered pair and stream,
  // z for the single join operator on each host, d for the demand.
  for (HostId h = 0; h < 2; ++h) {
    for (StreamId s : {f.a, f.b, f.ab}) {
      EXPECT_GE(mip.VarY(h, s), 0);
    }
    EXPECT_GE(mip.VarD(h, f.ab), 0);
  }
  EXPECT_GE(mip.VarX(0, 1, f.a), 0);
  EXPECT_GE(mip.VarX(1, 0, f.ab), 0);
  EXPECT_EQ(mip.VarX(0, 0, f.a), -1);  // self-flows never exist
  EXPECT_EQ(mip.VarD(0, f.a), -1);     // a is not demanded
  // Streams outside the relevant set have no variables.
  EXPECT_EQ(mip.VarY(0, 999), -1);
}

TEST(SqprMipTest, StreamTooFatForLinkPruned) {
  MipFixture f;
  f.cluster.SetLink(0, 1, 5.0);  // below the 10 Mbps base rate
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep);
  EXPECT_EQ(mip.VarX(0, 1, f.a), -1);        // cannot ever carry a
  EXPECT_GE(mip.VarX(0, 1, f.ab), 0);        // composite is thin enough
  EXPECT_GE(mip.VarX(1, 0, f.a), 0);         // reverse link unaffected
}

TEST(SqprMipTest, EmptyDeploymentWarmStartFeasible) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep);
  const std::vector<double> warm = mip.WarmStart();
  EXPECT_TRUE(mip.mip().lp.CheckFeasible(warm, 1e-6).ok());
  EXPECT_FALSE(mip.Serves(warm, f.ab));
}

TEST(SqprMipTest, CommittedStateWarmStartFeasible) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  const OperatorId join_op = f.closure.operators.front();
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, join_op).ok());
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());
  ASSERT_TRUE(dep.Validate().ok());

  SqprMip mip = f.Build(dep, /*must_serve=*/true);
  const std::vector<double> warm = mip.WarmStart();
  const Status feas = mip.mip().lp.CheckFeasible(warm, 1e-6);
  EXPECT_TRUE(feas.ok()) << feas.ToString();
  EXPECT_TRUE(mip.Serves(warm, f.ab));
}

TEST(SqprMipTest, PotentialsWarmStartFeasible) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  const OperatorId join_op = f.closure.operators.front();
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, join_op).ok());
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());

  SqprModelOptions options;
  options.acyclicity = AcyclicityMode::kPotentials;
  SqprMip mip = f.Build(dep, /*must_serve=*/true, options);
  const std::vector<double> warm = mip.WarmStart();
  const Status feas = mip.mip().lp.CheckFeasible(warm, 1e-6);
  EXPECT_TRUE(feas.ok()) << feas.ToString();
}

TEST(SqprMipTest, SolveAndCommitRoundTrip) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep);
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  options.gap_abs = 0.01;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), options);
  ASSERT_TRUE(result.has_solution());
  ASSERT_TRUE(mip.Serves(result.x, f.ab));

  Deployment target = dep;
  ASSERT_TRUE(target.Apply(mip.SolutionDelta(result.x, target)).ok());
  EXPECT_TRUE(target.Validate().ok());
  EXPECT_NE(target.ServingHost(f.ab), kInvalidHost);
  EXPECT_GT(target.num_placed_operators(), 0);
}

TEST(SqprMipTest, MustServeKeepsAdmittedQuery) {
  // Commit a serving state, rebuild with (IV.9): any solution must still
  // serve ab; the solver cannot drop it even though resources are tight.
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  const OperatorId join_op = f.closure.operators.front();
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, join_op).ok());
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());

  SqprMip mip = f.Build(dep, /*must_serve=*/true);
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), options);
  ASSERT_TRUE(result.has_solution());
  EXPECT_TRUE(mip.Serves(result.x, f.ab));
}

TEST(SqprMipTest, CpuResidualBlocksSecondOperator) {
  // Host CPU only fits one join; an irrelevant placed operator consumes
  // it, so the relevant model must place the join on the other host.
  MipFixture f;
  // An unrelated stream pair c,d whose join occupies host 0.
  const StreamId c = f.catalog.AddBaseStream(0, 10.0, "c");
  const StreamId d = f.catalog.AddBaseStream(0, 10.0, "d");
  const OperatorId cd_op = *f.catalog.JoinOperator(c, d);
  const double gamma = f.catalog.op(cd_op).cpu_cost;

  Cluster tight(2, HostSpec{gamma * 1.5, 100.0, 100.0, ""}, 500.0);
  Deployment dep(&tight, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, cd_op).ok());
  const StreamId cd = f.catalog.op(cd_op).output;
  ASSERT_TRUE(dep.SetServing(cd, 0).ok());
  ASSERT_TRUE(dep.Validate().ok());

  SqprMip mip(dep, f.closure.streams, f.closure.operators,
              {{f.ab, false}}, {});
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), options);
  ASSERT_TRUE(result.has_solution());
  ASSERT_TRUE(mip.Serves(result.x, f.ab));
  Deployment target = dep;
  ASSERT_TRUE(target.Apply(mip.SolutionDelta(result.x, target)).ok());
  EXPECT_TRUE(target.Validate().ok());
  // The new join cannot share host 0 (CPU residual 0.5 gamma).
  for (OperatorId o : f.closure.operators) {
    EXPECT_FALSE(target.RunsOperator(0, o));
  }
}

TEST(SqprMipTest, AvailabilityPinForFixedConsumer) {
  // An operator OUTSIDE the relevant set consumes base stream a at host 1
  // (via a flow); replanning a's flows must keep a available at host 1.
  MipFixture f;
  const StreamId e = f.catalog.AddBaseStream(1, 10.0, "e");
  const OperatorId ae_op = *f.catalog.JoinOperator(f.a, e);
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, ae_op).ok());
  ASSERT_TRUE(dep.SetServing(f.catalog.op(ae_op).output, 1).ok());
  ASSERT_TRUE(dep.Validate().ok());

  // Relevant set = closure(ab); ae_op is NOT in it but consumes a.
  SqprMip mip(dep, f.closure.streams, f.closure.operators, {{f.ab, false}},
              {});
  const int y_a_at_1 = mip.VarY(1, f.a);
  ASSERT_GE(y_a_at_1, 0);
  EXPECT_DOUBLE_EQ(mip.mip().lp.variable_lb(y_a_at_1), 1.0);  // pinned

  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), options);
  ASSERT_TRUE(result.has_solution());
  Deployment target = dep;
  ASSERT_TRUE(target.Apply(mip.SolutionDelta(result.x, target)).ok());
  // The fixed consumer must still be supported after the commit.
  EXPECT_TRUE(target.Validate().ok());
}

TEST(SqprMipTest, NoRelayModeForbidsForwardingReceivedStreams) {
  MipFixture f;
  SqprModelOptions options;
  options.enable_relay = false;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep, false, options);
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions solver_options;
  solver_options.lazy = &handler;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), solver_options);
  ASSERT_TRUE(result.has_solution());
  ASSERT_TRUE(mip.Serves(result.x, f.ab));
  // No host forwards a base stream it does not source.
  EXPECT_LT(result.x[mip.VarX(1, 0, f.a)], 0.5);  // host 1 doesn't have a
  EXPECT_LT(result.x[mip.VarX(0, 1, f.b)], 0.5);  // host 0 doesn't have b
}

TEST(SqprMipTest, InfeasibleWhenNothingFits) {
  MipFixture f;
  Cluster tiny(2, HostSpec{1e-9, 100.0, 100.0, ""}, 500.0);
  Deployment dep(&tiny, &f.catalog);
  SqprMip mip(dep, f.closure.streams, f.closure.operators, {{f.ab, false}},
              {});
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  milp::Solver solver;
  auto result = solver.Solve(mip.mip(), options);
  // The model is feasible (rejecting the query is allowed) but cannot
  // serve the query.
  ASSERT_TRUE(result.has_solution());
  EXPECT_FALSE(mip.Serves(result.x, f.ab));
}

TEST(SqprMipTest, ObjectiveWeightsRespectAdmissionDominance) {
  MipFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  SqprMip mip = f.Build(dep);
  // The d variables' objective (λ1) must exceed the total magnitude of
  // every resource term in any 0/1 assignment; sample the coefficients.
  double lambda1 = 0.0;
  double other_sum = 0.0;
  const lp::Model& lp = mip.mip().lp;
  for (int v = 0; v < lp.num_variables(); ++v) {
    const double obj = lp.objective(v);
    if (obj > 0) {
      lambda1 = std::max(lambda1, obj);
    } else {
      other_sum += -obj;  // worst case: every cost variable at 1
    }
  }
  EXPECT_GT(lambda1, other_sum);
}

}  // namespace
}  // namespace sqpr
