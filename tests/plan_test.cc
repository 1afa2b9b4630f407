#include <gtest/gtest.h>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "plan/query_plan.h"

namespace sqpr {
namespace {

/// Three hosts; base streams a@0, b@1; join stream ab.
struct Fixture {
  Fixture()
      : catalog(CostModel{}),
        cluster(3, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0) {
    a = catalog.AddBaseStream(0, 10.0, "a");
    b = catalog.AddBaseStream(1, 10.0, "b");
    auto op = catalog.JoinOperator(a, b);
    join_ab = *op;
    ab = catalog.op(join_ab).output;
  }
  Catalog catalog;
  Cluster cluster;
  StreamId a, b, ab;
  OperatorId join_ab;
};

TEST(DeploymentTest, EmptyStateValidates) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  EXPECT_TRUE(dep.Validate().ok());
  EXPECT_EQ(dep.num_flows(), 0);
  EXPECT_EQ(dep.num_placed_operators(), 0);
}

TEST(DeploymentTest, FlowAccounting) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_DOUBLE_EQ(dep.NicOutUsed(0), 10.0);
  EXPECT_DOUBLE_EQ(dep.NicInUsed(1), 10.0);
  EXPECT_DOUBLE_EQ(dep.LinkUsed(0, 1), 10.0);
  ASSERT_TRUE(dep.RemoveFlow(0, 1, f.a).ok());
  EXPECT_DOUBLE_EQ(dep.NicOutUsed(0), 0.0);
  EXPECT_EQ(dep.num_flows(), 0);
}

TEST(DeploymentTest, DuplicateFlowRejected) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_FALSE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_FALSE(dep.AddFlow(0, 0, f.a).ok());  // self-flow
}

TEST(DeploymentTest, OperatorAccounting) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  EXPECT_DOUBLE_EQ(dep.CpuUsed(0), f.catalog.op(f.join_ab).cpu_cost);
  EXPECT_FALSE(dep.PlaceOperator(0, f.join_ab).ok());  // duplicate
  ASSERT_TRUE(dep.RemoveOperator(0, f.join_ab).ok());
  EXPECT_DOUBLE_EQ(dep.CpuUsed(0), 0.0);
}

TEST(DeploymentTest, ServingConsumesNicOut) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.SetServing(f.a, 0).ok());
  EXPECT_DOUBLE_EQ(dep.NicOutUsed(0), 10.0);
  EXPECT_EQ(dep.ServingHost(f.a), 0);
  ASSERT_TRUE(dep.ClearServing(f.a).ok());
  EXPECT_DOUBLE_EQ(dep.NicOutUsed(0), 0.0);
}

TEST(DeploymentTest, GroundedBaseStreamAtSource) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  EXPECT_TRUE(dep.Grounded(0, f.a));
  EXPECT_FALSE(dep.Grounded(1, f.a));
  EXPECT_TRUE(dep.Grounded(1, f.b));
}

TEST(DeploymentTest, GroundedThroughFlowAndOperator) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // b flows 1 -> 0; join at 0 produces ab; ab flows 0 -> 2.
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 2, f.ab).ok());
  EXPECT_TRUE(dep.Grounded(0, f.b));
  EXPECT_TRUE(dep.Grounded(0, f.ab));
  EXPECT_TRUE(dep.Grounded(2, f.ab));
  EXPECT_FALSE(dep.Grounded(1, f.ab));
  EXPECT_TRUE(dep.Validate().ok());
}

TEST(DeploymentTest, AcausalFlowCycleNotGrounded) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // Hosts 1 and 2 send b to each other, but neither generates it
  // (source is host 1... use stream a whose source is host 0).
  ASSERT_TRUE(dep.AddFlow(1, 2, f.a).ok());
  ASSERT_TRUE(dep.AddFlow(2, 1, f.a).ok());
  EXPECT_FALSE(dep.Grounded(1, f.a));
  EXPECT_FALSE(dep.Grounded(2, f.a));
  EXPECT_FALSE(dep.Validate().ok());  // acausal flows rejected
}

TEST(DeploymentTest, OperatorMissingInputInvalid) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(2, f.join_ab).ok());  // no inputs at host 2
  EXPECT_FALSE(dep.Validate().ok());
}

TEST(DeploymentTest, ServingUngroundedStreamInvalid) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());
  EXPECT_FALSE(dep.Validate().ok());
}

TEST(DeploymentTest, CpuOverBudgetDetected) {
  Fixture f;
  // Tiny CPU budget.
  Cluster small(2, HostSpec{1e-6, 100.0, 100.0, ""}, 1000.0);
  Deployment dep(&small, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  const Status v = dep.Validate();
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.IsResourceExhausted());
}

TEST(DeploymentTest, LinkOverBudgetDetected) {
  Fixture f;
  Cluster tight(2, HostSpec{1.0, 100.0, 100.0, ""}, 5.0);  // 5 Mbps links
  Deployment dep(&tight, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());  // 10 Mbps > 5 Mbps
  EXPECT_FALSE(dep.Validate().ok());
}

TEST(DeploymentTest, CapacityHelpers) {
  Fixture f;
  Cluster tight(2, HostSpec{1.0, 15.0, 15.0, ""}, 1000.0);
  Deployment dep(&tight, &f.catalog);
  EXPECT_TRUE(dep.CanAddFlow(0, 1, f.a));
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_FALSE(dep.CanAddFlow(0, 1, f.b));  // NIC out would hit 20 > 15
  EXPECT_FALSE(dep.CanServe(f.a, 0));       // 10 used + 10 more > 15
  EXPECT_TRUE(dep.CanServe(f.a, 1));        // host 1 has only 10 in
}

TEST(DeploymentTest, CopySemantics) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  Deployment copy = dep;
  ASSERT_TRUE(copy.PlaceOperator(0, f.join_ab).ok());
  EXPECT_EQ(dep.num_placed_operators(), 0);  // original untouched
  EXPECT_EQ(copy.num_placed_operators(), 1);
}

// ------------------------------------------------------------ QueryPlan

TEST(DeploymentTest, VersionCountsEverySuccessfulMutation) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  const uint64_t v0 = dep.version();
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_EQ(dep.version(), v0 + 1);
  // Failed mutators do not move the version.
  EXPECT_FALSE(dep.AddFlow(0, 1, f.a).ok());
  EXPECT_EQ(dep.version(), v0 + 1);
  ASSERT_TRUE(dep.RemoveFlow(0, 1, f.a).ok());
  EXPECT_EQ(dep.version(), v0 + 2);
  // Ledger recomputes move the full version but not the structural
  // one — the PlanCache staleness key must ignore pure rate installs
  // yet catch every flow/placement/serving change.
  const uint64_t s0 = dep.structure_version();
  dep.RecomputeAggregates();
  EXPECT_EQ(dep.version(), v0 + 3);
  EXPECT_EQ(dep.structure_version(), s0);
  ASSERT_TRUE(dep.PlaceOperator(1, f.join_ab).ok());
  EXPECT_EQ(dep.structure_version(), s0 + 1);
}

TEST(QueryPlanTest, ExtractSimplePlan) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());
  ASSERT_TRUE(dep.Validate().ok());

  auto plan = ExtractPlan(dep, f.ab);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->query, f.ab);
  EXPECT_EQ(plan->serving_host, 0);
  EXPECT_TRUE(ValidatePlanTree(*plan, f.catalog).ok());
  // Root is the join operator on host 0; b arrives via a relay arc.
  EXPECT_EQ(plan->root->kind, PlanNodeKind::kOperator);
  EXPECT_EQ(plan->root->op, f.join_ab);
  EXPECT_EQ(plan->RelayCount(), 1);
  EXPECT_GE(plan->NodeCount(), 4);
}

TEST(QueryPlanTest, ExtractFailsWhenNotServed) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  EXPECT_FALSE(ExtractPlan(dep, f.ab).ok());
}

TEST(QueryPlanTest, RelayChainExtraction) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // a relayed 0 -> 1 -> 2, served at 2.
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.a).ok());
  ASSERT_TRUE(dep.SetServing(f.a, 2).ok());
  ASSERT_TRUE(dep.Validate().ok());
  auto plan = ExtractPlan(dep, f.a);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlanTree(*plan, f.catalog).ok());
  EXPECT_EQ(plan->RelayCount(), 2);
}

TEST(QueryPlanTest, ValidatorCatchesC1Violation) {
  Fixture f;
  QueryPlan plan;
  plan.query = f.ab;
  plan.serving_host = 0;
  plan.root = std::make_unique<PlanNode>();
  plan.root->kind = PlanNodeKind::kBaseSource;
  plan.root->host = 0;
  plan.root->stream = f.a;  // wrong: root must emit ab
  EXPECT_FALSE(ValidatePlanTree(plan, f.catalog).ok());
}

TEST(QueryPlanTest, ValidatorCatchesC3Violation) {
  Fixture f;
  QueryPlan plan;
  plan.query = f.a;
  plan.serving_host = 1;
  auto relay = std::make_unique<PlanNode>();
  relay->kind = PlanNodeKind::kRelay;
  relay->host = 1;
  relay->stream = f.a;
  // No children: relay must have exactly one.
  plan.root = std::move(relay);
  EXPECT_FALSE(ValidatePlanTree(plan, f.catalog).ok());
}

TEST(QueryPlanTest, ValidatorCatchesC4Violation) {
  Fixture f;
  QueryPlan plan;
  plan.query = f.a;
  plan.serving_host = 1;
  auto leaf = std::make_unique<PlanNode>();
  leaf->kind = PlanNodeKind::kBaseSource;
  leaf->host = 1;  // source of a is host 0
  leaf->stream = f.a;
  plan.root = std::move(leaf);
  EXPECT_FALSE(ValidatePlanTree(plan, f.catalog).ok());
}

TEST(QueryPlanTest, ToStringMentionsHostsAndStreams) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.AddFlow(1, 0, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.SetServing(f.ab, 0).ok());
  auto plan = ExtractPlan(dep, f.ab);
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString(f.catalog);
  EXPECT_NE(text.find("h0"), std::string::npos);
  EXPECT_NE(text.find("join"), std::string::npos);
}

// ------------------------------------------------- DeploymentDelta

TEST(DeploymentDeltaTest, DiffThenApplyReproducesTheTarget) {
  Fixture f;
  Deployment base(&f.cluster, &f.catalog);
  ASSERT_TRUE(base.AddFlow(1, 0, f.b).ok());

  Deployment next = base;
  ASSERT_TRUE(next.RemoveFlow(1, 0, f.b).ok());
  ASSERT_TRUE(next.AddFlow(0, 1, f.a).ok());
  ASSERT_TRUE(next.PlaceOperator(1, f.join_ab).ok());
  ASSERT_TRUE(next.SetServing(f.ab, 1).ok());

  // The diff from base to next, in ApplyDeploymentDelta's order.
  DeploymentDelta delta;
  delta.flows_removed.emplace_back(1, 0, f.b);
  delta.serving_changes.push_back({f.ab, kInvalidHost, 1});
  delta.ops_added.emplace_back(1, f.join_ab);
  delta.flows_added.emplace_back(0, 1, f.a);
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(DeploymentDelta().empty());

  Deployment replay = base;
  ASSERT_TRUE(ApplyDeploymentDelta(delta, &replay).ok());
  EXPECT_EQ(replay.Fingerprint(), next.Fingerprint());
  EXPECT_TRUE(replay.Validate().ok());

  // Append concatenates entries: removing and re-adding the same flow
  // lists it on both sides.
  DeploymentDelta combined = delta;
  DeploymentDelta readd;
  readd.flows_added.emplace_back(1, 0, f.b);
  combined.Append(readd);
  EXPECT_EQ(combined.flows_removed.size(), 1u);
  EXPECT_EQ(combined.flows_added.size(), 2u);
  EXPECT_EQ(combined.serving_changes.size(), 1u);
}

TEST(DeploymentDeltaTest, ApplySkipsWorkAnotherCommitAlreadyDid) {
  Fixture f;
  Deployment base(&f.cluster, &f.catalog);
  Deployment next = base;
  ASSERT_TRUE(next.PlaceOperator(0, f.join_ab).ok());
  DeploymentDelta delta;
  delta.ops_added.emplace_back(0, f.join_ab);

  // The operator is already placed: applying the delta keeps it once
  // instead of failing.
  Deployment live = base;
  ASSERT_TRUE(live.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(ApplyDeploymentDelta(delta, &live).ok());
  EXPECT_EQ(live.Fingerprint(), next.Fingerprint());
}

TEST(DeploymentDeltaTest, ApplyConflictsWhenServingDrifted) {
  Fixture f;
  Deployment base(&f.cluster, &f.catalog);
  ASSERT_TRUE(base.PlaceOperator(0, f.join_ab).ok());
  DeploymentDelta delta;
  delta.serving_changes.push_back({f.ab, kInvalidHost, 0});

  // The deployment serves ab elsewhere: the delta's `before` does not
  // match and the apply must refuse.
  Deployment live = base;
  ASSERT_TRUE(live.AddFlow(0, 1, f.ab).ok());
  ASSERT_TRUE(live.SetServing(f.ab, 1).ok());
  const Status st = ApplyDeploymentDelta(delta, &live);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

}  // namespace
}  // namespace sqpr
