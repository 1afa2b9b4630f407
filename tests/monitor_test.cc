// Tests for the §IV-B/§IV-C adaptive loop: catalog rate updates,
// deployment ledger refresh, drift detection and the full
// remove→update→evict→re-admit cycle.

#include "monitor/resource_monitor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "tests/drift_readmit.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

TEST(CatalogRateUpdateTest, CompositeRatesAndCostsRecompute) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const OperatorId join = *catalog.JoinOperator(a, b);
  const StreamId ab = catalog.op(join).output;

  const double old_rate = catalog.stream(ab).rate_mbps;
  const double old_cpu = catalog.op(join).cpu_cost;
  ASSERT_TRUE(catalog.UpdateBaseRate(a, 30.0).ok());

  // Join output rate = selectivity x (30 + 10); selectivity is a pure
  // function of the leaf set, so the ratio is exactly 2x.
  EXPECT_NEAR(catalog.stream(ab).rate_mbps, old_rate * 2.0, 1e-12);
  // Join CPU = cpu_per_mbps x (30 + 10) = 2x the old 20 Mbps cost.
  EXPECT_NEAR(catalog.op(join).cpu_cost, old_cpu * 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(catalog.stream(a).rate_mbps, 30.0);
}

TEST(CatalogRateUpdateTest, UnaryChainsFollowTheirInput) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const OperatorId filter =
      *catalog.UnaryOperator(OpKind::kFilter, a, /*tag=*/1,
                             /*output_rate_fraction=*/0.5);
  const StreamId filtered = catalog.op(filter).output;
  EXPECT_DOUBLE_EQ(catalog.stream(filtered).rate_mbps, 5.0);
  ASSERT_TRUE(catalog.UpdateBaseRate(a, 40.0).ok());
  EXPECT_DOUBLE_EQ(catalog.stream(filtered).rate_mbps, 20.0);
}

TEST(CatalogRateUpdateTest, RejectsBadInput) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  EXPECT_FALSE(catalog.UpdateBaseRate(ab, 5.0).ok());   // composite
  EXPECT_FALSE(catalog.UpdateBaseRate(999, 5.0).ok());  // unknown
  EXPECT_FALSE(catalog.UpdateBaseRate(a, -1.0).ok());   // non-positive
}

TEST(DeploymentTest, RecomputeAggregatesTracksNewCosts) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const OperatorId join = *catalog.JoinOperator(a, b);
  const StreamId ab = catalog.op(join).output;

  Deployment dep(&cluster, &catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, join).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, ab).ok());
  const double cpu_before = dep.CpuUsed(0);
  const double nic_before = dep.NicOutUsed(0);

  ASSERT_TRUE(catalog.UpdateBaseRate(a, 30.0).ok());
  dep.RecomputeAggregates();
  EXPECT_NEAR(dep.CpuUsed(0), cpu_before * 2.0, 1e-12);       // 40 vs 20 Mbps
  EXPECT_NEAR(dep.NicOutUsed(0), nic_before * 2.0, 1e-12);    // join rate 2x
  EXPECT_NEAR(dep.LinkUsed(0, 1), catalog.stream(ab).rate_mbps, 1e-12);
}

TEST(ResourceMonitorTest, FlagsDriftAndMapsToQueries) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(0, 10.0, "c");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  const StreamId bc = *catalog.CanonicalJoinStream({b, c});
  Cluster cluster(1, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  const Deployment empty(&cluster, &catalog);

  ResourceMonitor monitor(&catalog, DriftOptions{});
  // a measured 25% high (over the 20% threshold); c on estimate.
  const DriftReport report = monitor.Analyze(
      {{a, 12.5}, {c, 10.0}}, /*cpu_utilization=*/{0.5}, {ab, bc}, empty);
  ASSERT_EQ(report.drifted_base_streams.size(), 1u);
  EXPECT_EQ(report.drifted_base_streams[0], a);
  ASSERT_EQ(report.queries_to_replan.size(), 1u);
  EXPECT_EQ(report.queries_to_replan[0], ab);  // bc has no drifted leaf
  EXPECT_TRUE(report.overloaded_hosts.empty());
}

TEST(ResourceMonitorTest, DeduplicatesQueriesImplicatedByBothConditions) {
  // A query hit by condition (a) estimate drift AND condition (b)
  // resource shortage on a host its plan touches must appear in the
  // re-planning list exactly once — double-listing would re-plan it
  // twice per round.
  Catalog catalog(CostModel{});
  Cluster cluster(1, HostSpec{5.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  SqprPlanner planner(&cluster, &catalog, {});
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(planner.SubmitQuery(ab)->admitted);

  ResourceMonitor monitor(&catalog, DriftOptions{});
  // a drifted 50% high; the single host (which runs ab's plan) is
  // overloaded at 150% CPU.
  const DriftReport report =
      monitor.Analyze({{a, 15.0}}, /*cpu_utilization=*/{1.5},
                      planner.admitted_queries(), planner.deployment());
  ASSERT_EQ(report.drifted_base_streams.size(), 1u);
  ASSERT_EQ(report.overloaded_hosts.size(), 1u);
  ASSERT_EQ(report.queries_to_replan.size(), 1u);  // once, not twice
  EXPECT_EQ(report.queries_to_replan[0], ab);
}

TEST(ResourceMonitorTest, MapsOverloadedHostsToQueriesWithDeployment) {
  // With the committed deployment supplied, a pure host shortage (no
  // rate drift) also surfaces the affected queries.
  Catalog catalog(CostModel{});
  Cluster cluster(1, HostSpec{5.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  SqprPlanner planner(&cluster, &catalog, {});
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(planner.SubmitQuery(ab)->admitted);

  ResourceMonitor monitor(&catalog, DriftOptions{});
  const DriftReport report =
      monitor.Analyze({}, /*cpu_utilization=*/{1.5},
                      planner.admitted_queries(), planner.deployment());
  ASSERT_EQ(report.queries_to_replan.size(), 1u);
  EXPECT_EQ(report.queries_to_replan[0], ab);
}

// Boundary semantics (pinned by doc comments in resource_monitor.h):
// both drift conditions compare STRICTLY, so a measurement exactly at a
// threshold does not trigger re-planning.
TEST(ResourceMonitorTest, RateDeviationExactlyAtThresholdIsNotDrift) {
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  Cluster cluster(1, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  const Deployment empty(&cluster, &catalog);

  DriftOptions options;
  options.rate_threshold = 0.2;
  ResourceMonitor monitor(&catalog, options);

  // |12 - 10| / 10 == 0.2 exactly (2.0/10.0 is the correctly rounded
  // double 0.2, identical to the threshold literal): on-estimate.
  const DriftReport at = monitor.Analyze({{a, 12.0}}, {}, {ab}, empty);
  EXPECT_TRUE(at.drifted_base_streams.empty());
  EXPECT_TRUE(at.queries_to_replan.empty());
  EXPECT_TRUE(at.empty());

  // The same holds below the estimate: |8 - 10| / 10 == 0.2.
  EXPECT_TRUE(monitor.Analyze({{a, 8.0}}, {}, {ab}, empty).empty());

  // One step past the threshold in either direction drifts.
  const DriftReport above = monitor.Analyze({{a, 12.1}}, {}, {ab}, empty);
  ASSERT_EQ(above.drifted_base_streams.size(), 1u);
  EXPECT_EQ(above.drifted_base_streams[0], a);
  ASSERT_EQ(above.queries_to_replan.size(), 1u);
  EXPECT_EQ(above.queries_to_replan[0], ab);
  EXPECT_FALSE(monitor.Analyze({{a, 7.9}}, {}, {ab}, empty).empty());
}

TEST(ResourceMonitorTest, CpuExactlyAtShortageThresholdIsNotOverloaded) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  const Deployment empty(&cluster, &catalog);
  DriftOptions options;
  options.shortage_utilization = 1.0;
  ResourceMonitor monitor(&catalog, options);

  // Running exactly at capacity is not a shortage (strict comparison);
  // one ulp over is.
  const DriftReport at = monitor.Analyze({}, {1.0, 0.999999}, {}, empty);
  EXPECT_TRUE(at.overloaded_hosts.empty());
  EXPECT_TRUE(at.empty());

  const DriftReport over =
      monitor.Analyze({}, {1.0, std::nextafter(1.0, 2.0)}, {}, empty);
  ASSERT_EQ(over.overloaded_hosts.size(), 1u);
  EXPECT_EQ(over.overloaded_hosts[0], 1);
}

TEST(ResourceMonitorTest, EmptyDeploymentAndEmptyInputsAreBenign) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  Deployment empty(&cluster, &catalog);
  ResourceMonitor monitor(&catalog, DriftOptions{});

  // Nothing measured, nothing admitted, nothing deployed: an empty
  // report, not a crash or a spurious re-plan.
  const DriftReport nothing = monitor.Analyze({}, {}, {}, empty);
  EXPECT_TRUE(nothing.empty());
  EXPECT_TRUE(nothing.queries_to_replan.empty());

  // A drifted stream with no admitted queries still reports the stream
  // (so its rate gets installed) but implicates no queries — even with
  // the empty deployment supplied for host mapping.
  const DriftReport drifted =
      monitor.Analyze({{a, 30.0}}, {1.5, 0.2}, {}, empty);
  ASSERT_EQ(drifted.drifted_base_streams.size(), 1u);
  ASSERT_EQ(drifted.overloaded_hosts.size(), 1u);
  EXPECT_TRUE(drifted.queries_to_replan.empty());

  // And an empty deployment never reports an over-budget host.
  EXPECT_EQ(FirstOverBudgetHost(empty, 1e-6), kInvalidHost);
}

TEST(ResourceMonitorTest, FlagsOverloadedHosts) {
  Catalog catalog(CostModel{});
  Cluster cluster(3, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  const Deployment empty(&cluster, &catalog);
  ResourceMonitor monitor(&catalog, DriftOptions{});
  const DriftReport report = monitor.Analyze(
      {}, /*cpu_utilization=*/{0.7, 1.2, 0.9}, {}, empty);
  ASSERT_EQ(report.overloaded_hosts.size(), 1u);
  EXPECT_EQ(report.overloaded_hosts[0], 1);
}

TEST(AdaptiveReplanTest, RateGrowthEvictsUntilFeasible) {
  // Fill a small cluster near CPU capacity, then triple one popular
  // base stream's rate. The adaptive cycle must end with a valid
  // deployment; queries that no longer fit are rejected on re-admission.
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{0.3, 500.0, 500.0, ""}, 1000.0);
  std::vector<StreamId> base;
  for (int i = 0; i < 6; ++i) {
    base.push_back(catalog.AddBaseStream(i % 2, 10.0));
  }
  SqprPlanner::Options options;
  options.timeout_ms = 300;
  SqprPlanner planner(&cluster, &catalog, options);

  std::vector<StreamId> queries;
  for (int i = 0; i + 1 < 6; ++i) {
    queries.push_back(*catalog.CanonicalJoinStream({base[i], base[i + 1]}));
  }
  int admitted_before = 0;
  for (StreamId q : queries) {
    admitted_before += planner.SubmitQuery(q)->admitted;
  }
  ASSERT_GT(admitted_before, 0);

  ResourceMonitor monitor(&catalog, DriftOptions{});
  const std::map<StreamId, double> measured = {{base[1], 30.0}};
  const DriftReport report =
      monitor.Analyze(measured, std::vector<double>(2, 0.5),
                      planner.admitted_queries(), planner.deployment());
  EXPECT_FALSE(report.queries_to_replan.empty());

  Result<std::vector<PlanningStats>> stats =
      DriftAndReadmit(&planner, &catalog, measured, report);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_DOUBLE_EQ(catalog.stream(base[1]).rate_mbps, 30.0);
  EXPECT_TRUE(planner.deployment().Validate().ok());
  EXPECT_LE(static_cast<int>(planner.admitted_queries().size()),
            admitted_before);
}

TEST(AdaptiveReplanTest, RateDropFreesCapacityForMoreQueries) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{0.08, 500.0, 500.0, ""}, 1000.0);
  std::vector<StreamId> base;
  for (int i = 0; i < 8; ++i) {
    base.push_back(catalog.AddBaseStream(i % 2, 10.0));
  }
  SqprPlanner::Options options;
  options.timeout_ms = 300;
  SqprPlanner planner(&cluster, &catalog, options);

  std::vector<StreamId> queries;
  for (int i = 0; i + 1 < 8; i += 2) {
    queries.push_back(*catalog.CanonicalJoinStream({base[i], base[i + 1]}));
  }
  std::vector<StreamId> rejected;
  for (StreamId q : queries) {
    if (!planner.SubmitQuery(q)->admitted) rejected.push_back(q);
  }
  ASSERT_FALSE(rejected.empty()) << "scenario must start saturated";

  // Every base stream actually runs at half the estimated rate.
  std::map<StreamId, double> measured;
  for (StreamId s : base) measured[s] = 5.0;
  ResourceMonitor monitor(&catalog, DriftOptions{});
  const DriftReport report =
      monitor.Analyze(measured, std::vector<double>(2, 0.5),
                      planner.admitted_queries(), planner.deployment());
  ASSERT_TRUE(DriftAndReadmit(&planner, &catalog, measured, report).ok());

  int newly_admitted = 0;
  for (StreamId q : rejected) {
    newly_admitted += planner.SubmitQuery(q)->admitted;
  }
  EXPECT_GT(newly_admitted, 0);
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

}  // namespace
}  // namespace sqpr
