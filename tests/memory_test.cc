// Tests for the §VII memory-resource extension: cost model, deployment
// accounting, model-builder constraint rows and end-to-end planner
// behaviour under tight memory budgets.

#include <gtest/gtest.h>

#include <cmath>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

TEST(MemoryCostTest, OperatorMemoryIsLinearInInputRate) {
  CostModel cm;
  cm.mem_per_mbps = 0.125;
  EXPECT_DOUBLE_EQ(cm.OperatorMemMb(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cm.OperatorMemMb(20.0), 2.5);
  EXPECT_DOUBLE_EQ(cm.OperatorMemMb(40.0), 5.0);
}

TEST(MemoryCostTest, CatalogOperatorsCarryMemory) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const OperatorId join = *catalog.JoinOperator(a, b);
  EXPECT_DOUBLE_EQ(catalog.op(join).mem_mb,
                   catalog.cost_model().OperatorMemMb(20.0));
  EXPECT_GT(catalog.op(join).mem_mb, 0.0);
}

TEST(MemoryDeploymentTest, PlaceAndRemoveTrackMemory) {
  Catalog catalog(CostModel{});
  Cluster cluster(1, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const OperatorId join = *catalog.JoinOperator(a, b);

  Deployment dep(&cluster, &catalog);
  EXPECT_DOUBLE_EQ(dep.MemUsed(0), 0.0);
  ASSERT_TRUE(dep.PlaceOperator(0, join).ok());
  EXPECT_DOUBLE_EQ(dep.MemUsed(0), catalog.op(join).mem_mb);
  ASSERT_TRUE(dep.RemoveOperator(0, join).ok());
  EXPECT_DOUBLE_EQ(dep.MemUsed(0), 0.0);
}

TEST(MemoryDeploymentTest, CanPlaceRespectsMemoryBudget) {
  Catalog catalog(CostModel{});
  HostSpec host{10.0, 1000.0, 1000.0, ""};
  host.mem_mb = 3.0;  // fits one 2.5 MB join, not two
  Cluster cluster(1, host, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(0, 10.0, "c");
  const OperatorId j1 = *catalog.JoinOperator(a, b);
  const OperatorId j2 = *catalog.JoinOperator(a, c);

  Deployment dep(&cluster, &catalog);
  EXPECT_TRUE(dep.CanPlaceOperator(0, j1));
  ASSERT_TRUE(dep.PlaceOperator(0, j1).ok());
  EXPECT_FALSE(dep.CanPlaceOperator(0, j2));  // CPU fine, memory not
}

TEST(MemoryDeploymentTest, ValidateFlagsMemoryOvercommit) {
  Catalog catalog(CostModel{});
  HostSpec host{10.0, 1000.0, 1000.0, ""};
  host.mem_mb = 3.0;
  Cluster cluster(1, host, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(0, 10.0, "c");

  Deployment dep(&cluster, &catalog);
  // PlaceOperator does not gate on capacity (planners pre-check);
  // Validate() is the audit that must catch the overcommit.
  ASSERT_TRUE(dep.PlaceOperator(0, *catalog.JoinOperator(a, b)).ok());
  ASSERT_TRUE(dep.PlaceOperator(0, *catalog.JoinOperator(a, c)).ok());
  const Status audit = dep.Validate();
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(audit.IsResourceExhausted());
  EXPECT_NE(audit.message().find("memory"), std::string::npos);
}

TEST(MemoryModelTest, RowEmittedOnlyForFiniteBudgets) {
  Catalog catalog(CostModel{});
  std::vector<HostSpec> hosts(2, HostSpec{1.0, 100.0, 100.0, ""});
  hosts[0].mem_mb = 4.0;  // finite -> row; host 1 stays unlimited
  Cluster cluster(hosts, 500.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(1, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  const Closure closure = *catalog.JoinClosure(ab);

  Deployment dep(&cluster, &catalog);
  SqprMip mip(dep, closure.streams, closure.operators, {{ab, false}},
              SqprModelOptions{});
  int mem_rows = 0;
  for (HostId h = 0; h < 2; ++h) mem_rows += mip.MemRow(h) >= 0;
  EXPECT_EQ(mem_rows, 1);
  // The one budget row is host 0's, a <= row over its operators' state.
  const int row = mip.MemRow(0);
  ASSERT_GE(row, 0);
  EXPECT_EQ(mip.mip().lp.row_ub(row), 4.0);
  EXPECT_FALSE(mip.mip().lp.row_terms(row).empty());
}

TEST(MemoryPlannerTest, TightMemoryRejectsWhatCpuWouldAdmit) {
  // Identical clusters except for memory; the memory-tight one must
  // admit strictly fewer queries, and every commit must stay valid.
  WorkloadConfig wc;
  wc.num_base_streams = 12;
  wc.num_queries = 30;
  wc.arities = {2};
  wc.seed = 7;

  auto run = [&](double mem_mb) {
    Catalog catalog(CostModel{});
    HostSpec host{2.0, 400.0, 400.0, ""};
    host.mem_mb = mem_mb;
    Cluster cluster(3, host, 800.0);
    Workload workload = *GenerateWorkload(wc, 3, &catalog);
    SqprPlanner::Options options;
    options.timeout_ms = 200;
    SqprPlanner planner(&cluster, &catalog, options);
    int admitted = 0;
    for (StreamId q : workload.queries) {
      auto stats = planner.SubmitQuery(q);
      EXPECT_TRUE(stats.ok());
      admitted += stats->admitted && !stats->already_served;
    }
    EXPECT_TRUE(planner.deployment().Validate().ok());
    for (HostId h = 0; h < 3; ++h) {
      EXPECT_LE(planner.deployment().MemUsed(h), mem_mb + 1e-6);
    }
    return admitted;
  };

  const int unlimited = run(std::numeric_limits<double>::infinity());
  const int tight = run(6.0);  // ~2 joins' worth of window state per host
  EXPECT_GT(unlimited, tight);
  EXPECT_GT(tight, 0);
}

}  // namespace
}  // namespace sqpr
