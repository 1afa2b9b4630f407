// Tests for the §VII hierarchical planner: site partitioning, query
// assignment, subset construction, end-to-end admission and the
// invariant that committed plans never use out-of-subset hosts beyond
// the allowed border roles.

#include "planner/hierarchical/hierarchical_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "milp/solver.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

struct Fixture {
  explicit Fixture(int hosts, int sites, uint64_t seed = 3,
                   HostSpec spec = HostSpec{0.8, 120.0, 120.0, ""})
      : catalog(CostModel{}),
        cluster(hosts, spec, 2.0 * spec.nic_out_mbps) {
    WorkloadConfig wc;
    wc.num_base_streams = 6 * hosts;
    wc.num_queries = 12 * hosts;
    wc.arities = {2, 3};
    wc.seed = seed;
    workload = *GenerateWorkload(wc, hosts, &catalog);
    HierarchicalPlanner::Options options;
    options.num_sites = sites;
    options.planner.timeout_ms = 150;
    planner = std::make_unique<HierarchicalPlanner>(&cluster, &catalog,
                                                    options);
  }

  Catalog catalog;
  Cluster cluster;
  Workload workload;
  std::unique_ptr<HierarchicalPlanner> planner;
};

TEST(HierarchicalTest, SitesPartitionHosts) {
  Fixture f(7, 3);
  std::set<HostId> seen;
  int total = 0;
  for (int site = 0; site < 3; ++site) {
    for (HostId h : f.planner->SiteHosts(site)) {
      EXPECT_TRUE(seen.insert(h).second) << "host in two sites";
      ++total;
    }
  }
  EXPECT_EQ(total, 7);
}

TEST(HierarchicalTest, AssignPrefersLeafMajoritySite) {
  // 4 hosts, 2 sites {0,1} and {2,3}. A join whose leaves both live on
  // site-1 hosts must be assigned to site 1.
  Catalog catalog(CostModel{});
  Cluster cluster(4, HostSpec{1.0, 100.0, 100.0, ""}, 200.0);
  const StreamId a = catalog.AddBaseStream(2, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(3, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  HierarchicalPlanner::Options options;
  options.num_sites = 2;
  HierarchicalPlanner planner(&cluster, &catalog, options);
  EXPECT_EQ(*planner.AssignSite(ab), 1);
}

TEST(HierarchicalTest, AdmitsAndValidates) {
  Fixture f(6, 2);
  int admitted = 0;
  for (StreamId q : f.workload.queries) {
    Result<PlanningStats> stats = f.planner->SubmitQuery(q);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    admitted += stats->admitted && !stats->already_served;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_TRUE(f.planner->deployment().Validate().ok());
  EXPECT_EQ(static_cast<int>(f.planner->admitted_queries().size()),
            admitted);
}

TEST(HierarchicalTest, DedupReportsAlreadyServed) {
  Fixture f(4, 2);
  StreamId q = f.workload.queries.front();
  Result<PlanningStats> first = f.planner->SubmitQuery(q);
  ASSERT_TRUE(first.ok());
  if (first->admitted) {
    Result<PlanningStats> again = f.planner->SubmitQuery(q);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->already_served);
    EXPECT_TRUE(again->admitted);
  }
}

// With one site the subset is the whole cluster, so hierarchical
// planning is flat SQPR under the same planner options: node-bounded
// solves make both deterministic, and every submission must admit the
// same way, with the same solver effort, and leave the same deployment.
// The tight hosts make the admission screen reject some arrivals.
TEST(HierarchicalTest, SingleSiteEqualsFlatSqpr) {
  SqprPlanner::Options planner_options;
  planner_options.timeout_ms = 60000;
  planner_options.max_nodes = 200;
  planner_options.greedy_fallback = false;

  const HostSpec tight{0.3, 60.0, 60.0, ""};
  Fixture f(4, 1, /*seed=*/11, tight);
  HierarchicalPlanner::Options hier_options;
  hier_options.num_sites = 1;
  hier_options.planner = planner_options;
  HierarchicalPlanner hier(&f.cluster, &f.catalog, hier_options);

  Fixture g(4, 1, /*seed=*/11, tight);
  SqprPlanner flat(&g.cluster, &g.catalog, planner_options);

  ASSERT_EQ(f.workload.queries, g.workload.queries);
  int admitted = 0, screened = 0;
  for (StreamId q : f.workload.queries) {
    Result<PlanningStats> h = hier.SubmitQuery(q);
    Result<PlanningStats> s = flat.SubmitQuery(q);
    ASSERT_TRUE(h.ok() && s.ok());
    EXPECT_EQ(h->admitted, s->admitted) << "query " << q;
    EXPECT_EQ(h->solver_nodes, s->solver_nodes) << "query " << q;
    ASSERT_EQ(hier.deployment().Fingerprint(), flat.deployment().Fingerprint())
        << "query " << q;
    admitted += s->admitted && !s->already_served;
    screened += s->screened;
  }
  EXPECT_EQ(hier.admitted_queries(), flat.admitted_queries());
  EXPECT_GT(admitted, 0);
  EXPECT_GT(screened, 0);
}

TEST(HierarchicalTest, OperatorsStayWithinAssignedSubset) {
  // After planning, every placed operator must sit on a host that is in
  // some site's subset-eligible role: since subsets are per-query we
  // check the weaker global invariant that hosts running operators also
  // carry CPU accounting and the deployment validates; plus at least one
  // site boundary is respected: no operator host is outside the union of
  // all sites (trivially all hosts) — so instead check per-query subset
  // on a fresh single submission.
  Catalog catalog(CostModel{});
  Cluster cluster(6, HostSpec{1.0, 200.0, 200.0, ""}, 400.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(1, 10.0, "b");
  const StreamId ab = *catalog.CanonicalJoinStream({a, b});
  HierarchicalPlanner::Options options;
  options.num_sites = 3;  // sites {0,1} {2,3} {4,5}
  HierarchicalPlanner planner(&cluster, &catalog, options);

  Result<PlanningStats> stats = planner.SubmitQuery(ab);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->admitted);
  // Leaves live on hosts 0 and 1 -> site 0; subset = {0, 1}. Hosts 2..5
  // must be untouched.
  for (HostId h = 2; h < 6; ++h) {
    EXPECT_TRUE(planner.deployment().OperatorsOn(h).empty()) << h;
    EXPECT_DOUBLE_EQ(planner.deployment().CpuUsed(h), 0.0) << h;
    EXPECT_DOUBLE_EQ(planner.deployment().NicOutUsed(h), 0.0) << h;
  }
}

// A query reading a base stream whose source host has failed (zero
// budgets) cannot be served: the stream enters the cluster only there.
// Under a §VII host subset the exact admission screen rejects it before
// any model is built, and the full model restricted to the same subset
// agrees; once the host rejoins, the same query is admitted inside its
// subset.
TEST(HierarchicalTest, QueryReadingAFailedBorderSourceIsScreened) {
  Catalog catalog(CostModel{});
  Cluster cluster(6, HostSpec{1.0, 200.0, 200.0, ""}, 400.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId c = catalog.AddBaseStream(2, 10.0, "c");
  const StreamId ac = *catalog.CanonicalJoinStream({a, c});
  SqprPlanner::Options planner_options;
  planner_options.timeout_ms = 60000;
  planner_options.max_nodes = 2000;
  HierarchicalPlanner::Options options;
  options.num_sites = 3;  // sites {0,1} {2,3} {4,5}
  options.planner = planner_options;
  HierarchicalPlanner planner(&cluster, &catalog, options);
  ASSERT_EQ(*planner.AssignSite(ac), 0);
  // Site 0 plus c's source, the border host 2.
  const std::vector<HostId> subset = {0, 1, 2};

  const HostSpec healthy = cluster.host(2);
  HostSpec dead;
  dead.cpu = 0.0;
  dead.mem_mb = 0.0;
  cluster.SetHostSpec(2, dead);

  const Closure closure = *catalog.JoinClosure(ac);
  std::vector<StreamId> streams = closure.streams;
  std::vector<OperatorId> operators = closure.operators;
  std::sort(streams.begin(), streams.end());
  std::sort(operators.begin(), operators.end());
  const Deployment& committed = planner.deployment();
  ASSERT_TRUE(AdmissionHopeless(committed, streams, operators, {ac}));
  SqprMip mip(committed, streams, operators, {{ac, /*must_serve=*/false}},
              planner_options.model, subset);
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions solver_options;
  solver_options.lazy = &handler;
  const milp::MipResult r = milp::Solver().Solve(mip.mip(), solver_options);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);
  EXPECT_FALSE(mip.Serves(r.x, ac));

  const std::string before = committed.Fingerprint();
  Result<PlanningStats> rejected = planner.SubmitQuery(ac);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_TRUE(rejected->screened);
  EXPECT_FALSE(rejected->admitted);
  EXPECT_EQ(rejected->solver_nodes, 0);
  EXPECT_EQ(planner.deployment().Fingerprint(), before);

  cluster.SetHostSpec(2, healthy);
  Result<PlanningStats> admitted = planner.SubmitQuery(ac);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_FALSE(admitted->screened);
  EXPECT_TRUE(admitted->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
  for (HostId h = 3; h < 6; ++h) {
    EXPECT_TRUE(planner.deployment().OperatorsOn(h).empty()) << h;
    EXPECT_DOUBLE_EQ(planner.deployment().NicOutUsed(h), 0.0) << h;
  }
}

}  // namespace
}  // namespace sqpr
