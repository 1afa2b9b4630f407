#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "milp/solver.h"

#include "model/catalog.h"
#include "model/cluster.h"
#include "monitor/resource_monitor.h"
#include "plan/query_plan.h"
#include "planner/heuristic/heuristic_planner.h"
#include "planner/heuristic/join_trees.h"
#include "planner/optimistic/optimistic_bound.h"
#include "planner/soda/soda_planner.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

/// A small planning scenario: `num_hosts` hosts, base streams spread
/// uniformly, everything generously provisioned unless scaled down.
struct Scenario {
  Scenario(int num_hosts, int num_base, double cpu = 4.0,
           double nic = 200.0, double link = 1000.0)
      : catalog(CostModel{}),
        cluster(num_hosts, HostSpec{cpu, nic, nic, ""}, link) {
    for (int i = 0; i < num_base; ++i) {
      base.push_back(catalog.AddBaseStream(i % num_hosts, 10.0));
    }
  }

  StreamId Join(std::vector<StreamId> leaves) {
    auto s = catalog.CanonicalJoinStream(std::move(leaves));
    EXPECT_TRUE(s.ok());
    return *s;
  }

  SqprPlanner MakeSqpr(SqprPlanner::Options opts = {}) {
    return SqprPlanner(&cluster, &catalog, opts);
  }

  Catalog catalog;
  Cluster cluster;
  std::vector<StreamId> base;
};

// ------------------------------------------------------------- JoinTrees

TEST(JoinTreesTest, CountsMatchDoubleFactorial) {
  Scenario s(2, 5);
  EXPECT_EQ(EnumerateJoinTrees(s.Join({s.base[0], s.base[1]}), &s.catalog)
                ->size(),
            1u);
  EXPECT_EQ(
      EnumerateJoinTrees(s.Join({s.base[0], s.base[1], s.base[2]}), &s.catalog)
          ->size(),
      3u);
  EXPECT_EQ(EnumerateJoinTrees(
                s.Join({s.base[0], s.base[1], s.base[2], s.base[3]}),
                &s.catalog)
                ->size(),
            15u);
  EXPECT_EQ(EnumerateJoinTrees(s.Join({s.base[0], s.base[1], s.base[2],
                                       s.base[3], s.base[4]}),
                               &s.catalog)
                ->size(),
            105u);
}

TEST(JoinTreesTest, AllTreesProduceTheQueryStream) {
  Scenario s(2, 4);
  const StreamId q = s.Join({s.base[0], s.base[1], s.base[2], s.base[3]});
  auto trees = EnumerateJoinTrees(q, &s.catalog);
  ASSERT_TRUE(trees.ok());
  for (const auto& tree : *trees) EXPECT_EQ(tree->stream, q);
}

TEST(JoinTreesTest, LeftDeepTemplateShape) {
  Scenario s(2, 3);
  const StreamId q = s.Join({s.base[0], s.base[1], s.base[2]});
  auto tree = LeftDeepTree(q, &s.catalog);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->stream, q);
  EXPECT_TRUE((*tree)->right->is_leaf());          // right child is a leaf
  EXPECT_FALSE((*tree)->left->is_leaf());          // left child is the subjoin
  EXPECT_EQ(BottomUpOperators(**tree).size(), 2u);  // k-1 joins
}

// ------------------------------------------------------- SQPR planner

TEST(SqprPlannerTest, AdmitsSingleTwoWayJoin) {
  Scenario s(3, 6);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q = s.Join({s.base[0], s.base[1]});
  auto stats = planner.SubmitQuery(q);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->admitted);
  EXPECT_FALSE(stats->already_served);
  EXPECT_EQ(planner.deployment().ServingHost(q) == kInvalidHost, false);
  EXPECT_TRUE(planner.deployment().Validate().ok());

  // The admitted plan must extract into a valid C1-C4 tree.
  auto plan = ExtractPlan(planner.deployment(), q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(ValidatePlanTree(*plan, s.catalog).ok());
}

TEST(SqprPlannerTest, DedupsRepeatedQuery) {
  Scenario s(3, 6);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q = s.Join({s.base[0], s.base[1]});
  ASSERT_TRUE(planner.SubmitQuery(q)->admitted);
  auto again = planner.SubmitQuery(q);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->admitted);
  EXPECT_TRUE(again->already_served);
  EXPECT_EQ(planner.admitted_queries().size(), 1u);
}

TEST(SqprPlannerTest, RejectsWhenCpuExhausted) {
  // One host, CPU so small no join fits.
  Scenario s(1, 4, /*cpu=*/1e-9);
  SqprPlanner planner = s.MakeSqpr();
  auto stats = planner.SubmitQuery(s.Join({s.base[0], s.base[1]}));
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

TEST(SqprPlannerTest, AdmittedQueriesSurviveLaterPlanning) {
  Scenario s(3, 9, /*cpu=*/1.0);
  SqprPlanner planner = s.MakeSqpr();
  std::vector<StreamId> queries = {
      s.Join({s.base[0], s.base[1]}),
      s.Join({s.base[1], s.base[2]}),
      s.Join({s.base[0], s.base[2]}),
      s.Join({s.base[3], s.base[4]}),
  };
  std::vector<StreamId> admitted;
  for (StreamId q : queries) {
    auto st = planner.SubmitQuery(q);
    ASSERT_TRUE(st.ok());
    if (st->admitted) admitted.push_back(q);
    // (IV.9): everything admitted earlier must still be served.
    for (StreamId prev : admitted) {
      EXPECT_NE(planner.deployment().ServingHost(prev), kInvalidHost)
          << "query " << prev << " dropped after planning " << q;
    }
    EXPECT_TRUE(planner.deployment().Validate().ok());
  }
  EXPECT_GE(admitted.size(), 2u);
}

TEST(SqprPlannerTest, ReusesSharedSubQuery) {
  // Queries join{0,1,2} then join{0,1,3}: the shared sub-join {0,1}
  // should be computed once (one placement of any {0,1} producer).
  // A tight gap and a generous timeout let the solver prove it instead
  // of stopping at a within-gap incumbent that duplicates the producer.
  Scenario s(4, 8, /*cpu=*/4.0);
  SqprPlanner::Options opts;
  opts.timeout_ms = 8000;
  opts.mip_gap_abs = 1e-4;
  opts.mip_gap_rel = 1e-7;
  SqprPlanner planner(&s.cluster, &s.catalog, opts);
  const StreamId q1 = s.Join({s.base[0], s.base[1], s.base[2]});
  const StreamId q2 = s.Join({s.base[0], s.base[1], s.base[3]});
  ASSERT_TRUE(planner.SubmitQuery(q1)->admitted);
  ASSERT_TRUE(planner.SubmitQuery(q2)->admitted);

  const StreamId ab = s.Join({s.base[0], s.base[1]});
  // Count placements of any producer of ab.
  int ab_producers = 0;
  for (HostId h = 0; h < s.cluster.num_hosts(); ++h) {
    for (OperatorId o : planner.deployment().OperatorsOn(h)) {
      if (s.catalog.op(o).output == ab) ++ab_producers;
    }
  }
  // Reuse bound: at most one producer instance of the shared sub-join.
  EXPECT_LE(ab_producers, 1);
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

TEST(SqprPlannerTest, PotentialsModeMatchesLazyCuts) {
  // Same workload under both acyclicity formulations: admission decisions
  // must agree (they define the same feasible set).
  for (auto mode :
       {AcyclicityMode::kLazyCycleCuts, AcyclicityMode::kPotentials}) {
    Scenario s(3, 6, /*cpu=*/2.0);
    SqprPlanner::Options opts;
    opts.model.acyclicity = mode;
    SqprPlanner planner(&s.cluster, &s.catalog, opts);
    int admitted = 0;
    for (int i = 0; i < 4; ++i) {
      const StreamId q = s.Join({s.base[i % 6], s.base[(i + 1) % 6]});
      auto st = planner.SubmitQuery(q);
      ASSERT_TRUE(st.ok());
      admitted += st->admitted ? 1 : 0;
    }
    EXPECT_EQ(admitted, 4) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(planner.deployment().Validate().ok());
  }
}

TEST(SqprPlannerTest, NoRelayModeStillPlans) {
  Scenario s(3, 6);
  SqprPlanner::Options opts;
  opts.model.enable_relay = false;
  SqprPlanner planner(&s.cluster, &s.catalog, opts);
  const StreamId q = s.Join({s.base[0], s.base[1]});
  auto st = planner.SubmitQuery(q);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

TEST(SqprPlannerTest, BatchSubmission) {
  Scenario s(3, 8);
  SqprPlanner planner = s.MakeSqpr();
  std::vector<StreamId> batch = {
      s.Join({s.base[0], s.base[1]}),
      s.Join({s.base[2], s.base[3]}),
      s.Join({s.base[0], s.base[1]}),  // duplicate inside the batch
  };
  auto stats = planner.SubmitBatch(batch);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 3u);
  EXPECT_TRUE((*stats)[0].admitted);
  EXPECT_TRUE((*stats)[1].admitted);
  EXPECT_TRUE((*stats)[2].admitted);
  EXPECT_EQ(planner.admitted_queries().size(), 2u);  // dedup
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

TEST(SqprPlannerTest, RemoveQueryReleasesResources) {
  Scenario s(3, 6);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q = s.Join({s.base[0], s.base[1]});
  ASSERT_TRUE(planner.SubmitQuery(q)->admitted);
  EXPECT_GT(planner.deployment().num_placed_operators(), 0);
  ASSERT_TRUE(planner.RemoveQueries({q}).ok());
  EXPECT_EQ(planner.deployment().num_placed_operators(), 0);
  EXPECT_EQ(planner.deployment().num_flows(), 0);
  EXPECT_EQ(planner.deployment().ServingHost(q), kInvalidHost);
}

TEST(SqprPlannerTest, RemoveKeepsSharedSupport) {
  Scenario s(4, 8, /*cpu=*/4.0);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q1 = s.Join({s.base[0], s.base[1], s.base[2]});
  const StreamId q2 = s.Join({s.base[0], s.base[1], s.base[3]});
  ASSERT_TRUE(planner.SubmitQuery(q1)->admitted);
  ASSERT_TRUE(planner.SubmitQuery(q2)->admitted);
  ASSERT_TRUE(planner.RemoveQueries({q1}).ok());
  // q2 must still be served and valid.
  EXPECT_NE(planner.deployment().ServingHost(q2), kInvalidHost);
  EXPECT_TRUE(planner.deployment().Validate().ok());
  auto plan = ExtractPlan(planner.deployment(), q2);
  EXPECT_TRUE(plan.ok());
}

TEST(SqprPlannerTest, ReplanQueriesKeepsThemAdmitted) {
  Scenario s(3, 6);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q1 = s.Join({s.base[0], s.base[1]});
  const StreamId q2 = s.Join({s.base[2], s.base[3]});
  ASSERT_TRUE(planner.SubmitQuery(q1)->admitted);
  ASSERT_TRUE(planner.SubmitQuery(q2)->admitted);
  // §IV-B: remove both in one batch, then re-admit them.
  ASSERT_TRUE(planner.RemoveQueries({q1, q2}).ok());
  EXPECT_EQ(planner.deployment().num_placed_operators(), 0);
  EXPECT_TRUE(planner.SubmitQuery(q1)->admitted);
  EXPECT_TRUE(planner.SubmitQuery(q2)->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
}

TEST(SqprPlannerTest, RemoveQueriesRejectsBadBatchesUnchanged) {
  Scenario s(3, 6);
  SqprPlanner planner = s.MakeSqpr();
  const StreamId q1 = s.Join({s.base[0], s.base[1]});
  const StreamId q2 = s.Join({s.base[2], s.base[3]});
  const StreamId never = s.Join({s.base[4], s.base[5]});
  ASSERT_TRUE(planner.SubmitQuery(q1)->admitted);
  ASSERT_TRUE(planner.SubmitQuery(q2)->admitted);
  const std::string fingerprint = planner.deployment().Fingerprint();
  const uint64_t version = planner.deployment().version();

  // The whole batch is checked before anything changes: an unknown
  // query after a valid one, or a valid query named twice.
  EXPECT_TRUE(planner.RemoveQueries({q1, never}).IsNotFound());
  EXPECT_TRUE(planner.RemoveQueries({q2, q1, q2}).IsInvalidArgument());
  EXPECT_EQ(planner.deployment().Fingerprint(), fingerprint);
  EXPECT_EQ(planner.deployment().version(), version);
  EXPECT_EQ(planner.admitted_queries(), (std::vector<StreamId>{q1, q2}));

  // The empty batch only collects garbage and audits: the servings stay,
  // and a second one finds nothing left to collect.
  EXPECT_TRUE(planner.RemoveQueries({}).ok());
  const uint64_t collected = planner.deployment().version();
  EXPECT_TRUE(planner.RemoveQueries({}).ok());
  EXPECT_EQ(planner.deployment().version(), collected);
  EXPECT_EQ(planner.admitted_queries(), (std::vector<StreamId>{q1, q2}));
  EXPECT_NE(planner.deployment().ServingHost(q1), kInvalidHost);
  EXPECT_NE(planner.deployment().ServingHost(q2), kInvalidHost);

  // A batch may alias the admitted list itself.
  EXPECT_TRUE(planner.RemoveQueries(planner.admitted_queries()).ok());
  EXPECT_TRUE(planner.admitted_queries().empty());
  EXPECT_EQ(planner.deployment().num_placed_operators(), 0);
  EXPECT_EQ(planner.deployment().num_flows(), 0);
}

TEST(SqprPlannerTest, FullReplanMatchesOrBeatsReduced) {
  // With reduction disabled the model subsumes the reduced one, so the
  // unreduced planner must admit at least as many queries on this tiny
  // scenario (both get ample time).
  std::vector<int> admitted_counts;
  for (bool reduce : {true, false}) {
    Scenario s(2, 6, /*cpu=*/0.5);
    SqprPlanner::Options opts;
    opts.reduce_problem = reduce;
    opts.timeout_ms = 3000;
    SqprPlanner planner(&s.cluster, &s.catalog, opts);
    int admitted = 0;
    for (int i = 0; i + 1 < 6; i += 2) {
      auto st = planner.SubmitQuery(s.Join({s.base[i], s.base[i + 1]}));
      ASSERT_TRUE(st.ok());
      admitted += st->admitted;
    }
    admitted_counts.push_back(admitted);
  }
  EXPECT_GE(admitted_counts[1], admitted_counts[0]);
}

// ---------------------------------------------------- Heuristic planner

TEST(HeuristicPlannerTest, AdmitsAndValidates) {
  Scenario s(3, 6);
  HeuristicPlanner planner(&s.cluster, &s.catalog, {});
  const StreamId q = s.Join({s.base[0], s.base[1], s.base[2]});
  auto st = planner.SubmitQuery(q);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
  auto plan = ExtractPlan(planner.deployment(), q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlanTree(*plan, s.catalog).ok());
}

TEST(HeuristicPlannerTest, SinglePlanPerHostNoSpreading) {
  // All operators of one query land on a single host (the paper's noted
  // limitation: the heuristic never distributes plans over hosts).
  Scenario s(4, 8);
  HeuristicPlanner planner(&s.cluster, &s.catalog, {});
  const StreamId q = s.Join({s.base[0], s.base[1], s.base[2]});
  ASSERT_TRUE(planner.SubmitQuery(q)->admitted);
  std::set<HostId> hosts_with_ops;
  for (HostId h = 0; h < s.cluster.num_hosts(); ++h) {
    if (!planner.deployment().OperatorsOn(h).empty()) hosts_with_ops.insert(h);
  }
  EXPECT_EQ(hosts_with_ops.size(), 1u);
}

TEST(HeuristicPlannerTest, ReusesExistingSubQueries) {
  Scenario s(3, 6);
  HeuristicPlanner planner(&s.cluster, &s.catalog, {});
  ASSERT_TRUE(planner.SubmitQuery(s.Join({s.base[0], s.base[1]}))->admitted);
  const int ops_before = planner.deployment().num_placed_operators();
  ASSERT_TRUE(
      planner.SubmitQuery(s.Join({s.base[0], s.base[1], s.base[2]}))
          ->admitted);
  // Only one extra operator: join{01,2} reusing the existing join{0,1}.
  EXPECT_EQ(planner.deployment().num_placed_operators(), ops_before + 1);
}

TEST(HeuristicPlannerTest, RejectsWhenNothingFits) {
  Scenario s(2, 4, /*cpu=*/1e-9);
  HeuristicPlanner planner(&s.cluster, &s.catalog, {});
  auto st = planner.SubmitQuery(s.Join({s.base[0], s.base[1]}));
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->admitted);
}

// ---------------------------------------------------- Optimistic bound

TEST(OptimisticBoundTest, AdmitsUntilCpuExhausted) {
  Scenario s(2, 6, /*cpu=*/0.1);
  OptimisticBound bound(s.cluster, &s.catalog);
  int admitted = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = bound.SubmitQuery(s.Join({s.base[2 * i], s.base[2 * i + 1]}));
    ASSERT_TRUE(r.ok());
    admitted += *r;
  }
  EXPECT_EQ(admitted, bound.admitted_count());
  EXPECT_LE(bound.cpu_used(), bound.cpu_budget() + 1e-9);
}

TEST(OptimisticBoundTest, ReuseMakesRepeatQueriesFree) {
  Scenario s(2, 4);
  OptimisticBound bound(s.cluster, &s.catalog);
  const StreamId q = s.Join({s.base[0], s.base[1]});
  ASSERT_TRUE(*bound.SubmitQuery(q));
  const double used = bound.cpu_used();
  ASSERT_TRUE(*bound.SubmitQuery(q));  // dedup: zero extra CPU
  EXPECT_DOUBLE_EQ(bound.cpu_used(), used);
  EXPECT_EQ(bound.admitted_count(), 1);
}

TEST(OptimisticBoundTest, SharedSubJoinReducesIncrementalCost) {
  Scenario s(2, 6);
  OptimisticBound bound(s.cluster, &s.catalog);
  ASSERT_TRUE(*bound.SubmitQuery(s.Join({s.base[0], s.base[1], s.base[2]})));
  const double used_after_first = bound.cpu_used();
  ASSERT_TRUE(*bound.SubmitQuery(s.Join({s.base[0], s.base[1], s.base[3]})));
  const double second_cost = bound.cpu_used() - used_after_first;
  // The second query can reuse join{0,1}: it should cost less than the
  // first one did from scratch.
  EXPECT_LT(second_cost, used_after_first);
}

TEST(OptimisticBoundTest, DominatesSqprOnSameSequence) {
  // Uses the full-closure credit below: the default chosen-tree
  // estimator is tighter but can legitimately be beaten.
  // The aggregate-host bound must admit at least as many queries as the
  // real planner on any submission sequence.
  Scenario s(3, 9, /*cpu=*/0.4);
  SqprPlanner sqpr = s.MakeSqpr();
  OptimisticBound bound(s.cluster, &s.catalog,
                        OptimisticBound::ReuseCredit::kFullClosure);
  int sqpr_admitted = 0;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const StreamId q =
        s.Join({s.base[rng.NextBounded(9)],
                s.base[(rng.NextBounded(8) + 1 + rng.NextBounded(9)) % 9]});
    // (ensure two distinct leaves)
    auto st = sqpr.SubmitQuery(q);
    ASSERT_TRUE(st.ok());
    sqpr_admitted += st->admitted;
    ASSERT_TRUE(bound.SubmitQuery(q).ok());
  }
  EXPECT_GE(bound.admitted_count(), sqpr_admitted);
}

// ------------------------------------------------------------ SODA

TEST(SodaPlannerTest, AdmitsAndValidates) {
  Scenario s(3, 6);
  SodaPlanner planner(&s.cluster, &s.catalog, {});
  const StreamId q = s.Join({s.base[0], s.base[1], s.base[2]});
  auto st = planner.SubmitQuery(q);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->admitted);
  EXPECT_TRUE(planner.deployment().Validate().ok());
  auto plan = ExtractPlan(planner.deployment(), q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlanTree(*plan, s.catalog).ok());
}

TEST(SodaPlannerTest, MacroQRejectsOnCpu) {
  Scenario s(2, 4, /*cpu=*/1e-9);
  SodaPlanner planner(&s.cluster, &s.catalog, {});
  auto st = planner.SubmitQuery(s.Join({s.base[0], s.base[1]}));
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->admitted);
}

TEST(SodaPlannerTest, ReusesExistingStreams) {
  Scenario s(3, 6);
  SodaPlanner planner(&s.cluster, &s.catalog, {});
  ASSERT_TRUE(planner.SubmitQuery(s.Join({s.base[0], s.base[1]}))->admitted);
  const int ops_before = planner.deployment().num_placed_operators();
  ASSERT_TRUE(
      planner.SubmitQuery(s.Join({s.base[0], s.base[1], s.base[2]}))
          ->admitted);
  EXPECT_EQ(planner.deployment().num_placed_operators(), ops_before + 1);
}

TEST(SodaPlannerTest, DedupsRepeatedQuery) {
  Scenario s(3, 6);
  SodaPlanner planner(&s.cluster, &s.catalog, {});
  const StreamId q = s.Join({s.base[0], s.base[1]});
  ASSERT_TRUE(planner.SubmitQuery(q)->admitted);
  auto again = planner.SubmitQuery(q);
  EXPECT_TRUE(again->already_served);
}

// -------------------------------------------------------- Workload

TEST(WorkloadTest, GeneratesRequestedCounts) {
  Catalog catalog((CostModel()));
  WorkloadConfig config;
  config.num_base_streams = 30;
  config.num_queries = 50;
  config.seed = 3;
  auto w = GenerateWorkload(config, /*num_hosts=*/5, &catalog);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->base_streams.size(), 30u);
  EXPECT_EQ(w->queries.size(), 50u);
}

TEST(WorkloadTest, BaseStreamsUniformOverHosts) {
  Catalog catalog((CostModel()));
  WorkloadConfig config;
  config.num_base_streams = 20;
  auto w = GenerateWorkload(config, /*num_hosts=*/4, &catalog);
  ASSERT_TRUE(w.ok());
  std::vector<int> per_host(4, 0);
  for (StreamId s : w->base_streams) {
    ++per_host[catalog.stream(s).source_host];
  }
  for (int c : per_host) EXPECT_EQ(c, 5);
}

TEST(WorkloadTest, AritiesRespected) {
  Catalog catalog((CostModel()));
  WorkloadConfig config;
  config.num_base_streams = 40;
  config.num_queries = 60;
  config.arities = {2, 3, 4};
  auto w = GenerateWorkload(config, 4, &catalog);
  ASSERT_TRUE(w.ok());
  for (StreamId q : w->queries) {
    const size_t k = catalog.stream(q).leaves.size();
    EXPECT_GE(k, 2u);
    EXPECT_LE(k, 4u);
  }
}

TEST(WorkloadTest, HigherZipfSkewIncreasesOverlap) {
  // More skew -> fewer distinct queries (more repeats/overlap).
  auto distinct_at = [](double zipf) {
    Catalog catalog((CostModel()));
    WorkloadConfig config;
    config.num_base_streams = 100;
    config.num_queries = 200;
    config.zipf_s = zipf;
    config.arities = {2};
    config.seed = 11;
    auto w = GenerateWorkload(config, 5, &catalog);
    EXPECT_TRUE(w.ok());
    return w->DistinctQueryCount();
  };
  EXPECT_LT(distinct_at(2.0), distinct_at(0.0));
}

TEST(WorkloadTest, DeterministicAcrossRuns) {
  auto make = [] {
    Catalog catalog((CostModel()));
    WorkloadConfig config;
    config.num_base_streams = 20;
    config.num_queries = 30;
    config.seed = 99;
    auto w = GenerateWorkload(config, 3, &catalog);
    EXPECT_TRUE(w.ok());
    return w->queries;
  };
  EXPECT_EQ(make(), make());
}

TEST(WorkloadTest, InvalidConfigsRejected) {
  Catalog catalog((CostModel()));
  WorkloadConfig bad;
  bad.num_base_streams = 0;
  EXPECT_FALSE(GenerateWorkload(bad, 2, &catalog).ok());
  WorkloadConfig bad2;
  bad2.arities = {1};
  EXPECT_FALSE(GenerateWorkload(bad2, 2, &catalog).ok());
  WorkloadConfig bad3;
  bad3.num_base_streams = 3;
  bad3.arities = {4};
  EXPECT_FALSE(GenerateWorkload(bad3, 2, &catalog).ok());
}

// --------------------------------------- Cross-planner integration sweep

struct SweepCase {
  int hosts;
  int base_streams;
  double cpu;
  uint64_t seed;
};

class PlannerSweepTest : public ::testing::TestWithParam<SweepCase> {};

// Every planner must produce only valid deployments, and SQPR must stay
// at or above the heuristic and at or below the optimistic bound — the
// Fig. 4(a) ordering — on arbitrary random workloads.
TEST_P(PlannerSweepTest, OrderingAndValidityHold) {
  const SweepCase& tc = GetParam();
  Catalog catalog((CostModel()));
  Cluster cluster(tc.hosts, HostSpec{tc.cpu, 150.0, 150.0, ""}, 500.0);
  WorkloadConfig config;
  config.num_base_streams = tc.base_streams;
  config.num_queries = 12;
  config.arities = {2, 3};
  config.seed = tc.seed;
  auto workload = GenerateWorkload(config, tc.hosts, &catalog);
  ASSERT_TRUE(workload.ok());

  SqprPlanner::Options opts;
  opts.timeout_ms = 500;
  SqprPlanner sqpr(&cluster, &catalog, opts);
  HeuristicPlanner heuristic(&cluster, &catalog, {});
  OptimisticBound bound(cluster, &catalog,
                        OptimisticBound::ReuseCredit::kFullClosure);

  int sqpr_admitted = 0, heuristic_admitted = 0;
  for (StreamId q : workload->queries) {
    auto s1 = sqpr.SubmitQuery(q);
    ASSERT_TRUE(s1.ok());
    sqpr_admitted += s1->admitted && !s1->already_served;
    auto s2 = heuristic.SubmitQuery(q);
    ASSERT_TRUE(s2.ok());
    heuristic_admitted += s2->admitted && !s2->already_served;
    ASSERT_TRUE(bound.SubmitQuery(q).ok());
  }
  EXPECT_TRUE(sqpr.deployment().Validate().ok());
  EXPECT_TRUE(heuristic.deployment().Validate().ok());
  EXPECT_GE(bound.admitted_count(), sqpr_admitted) << "seed " << tc.seed;

  // Every admitted SQPR query must have an extractable, C1-C4-valid plan.
  for (StreamId q : sqpr.admitted_queries()) {
    auto plan = ExtractPlan(sqpr.deployment(), q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(ValidatePlanTree(*plan, catalog).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerSweepTest,
    ::testing::Values(SweepCase{2, 8, 0.5, 1}, SweepCase{3, 12, 0.4, 2},
                      SweepCase{4, 12, 0.3, 3}, SweepCase{3, 9, 1.0, 4},
                      SweepCase{2, 6, 0.2, 5}, SweepCase{4, 16, 0.6, 6}));

// ---------------------------------------------- In-place commits

// Two hosts, all bases injected at host 0, host 1 unusable (zero CPU
// and NICs), host 0's CPU sized for exactly one 2-way join operator
// (cost 20 Mbps / 300 = 0.0667): two such queries each fit alone but
// not together.
struct OneJoinScenario {
  OneJoinScenario()
      : catalog(CostModel{}),
        cluster(2, HostSpec{0.07, 500.0, 500.0, ""}, 1000.0) {
    HostSpec dead;
    dead.cpu = 0.0;
    dead.nic_out_mbps = 0.0;
    dead.nic_in_mbps = 0.0;
    cluster.SetHostSpec(1, dead);
    for (int i = 0; i < 4; ++i) {
      base.push_back(catalog.AddBaseStream(0, 10.0));
    }
  }
  Catalog catalog;
  Cluster cluster;
  std::vector<StreamId> base;
};

// A solve that rejects its query commits nothing: not the rejection's
// re-placement of other queries, not a ledger recompute.
TEST(SqprInPlaceTest, RejectedSolveLeavesDeploymentUntouched) {
  OneJoinScenario s;
  const StreamId q01 = *s.catalog.CanonicalJoinStream({s.base[0], s.base[1]});
  const StreamId q23 = *s.catalog.CanonicalJoinStream({s.base[2], s.base[3]});
  SqprPlanner::Options options;
  options.timeout_ms = 60000;
  options.max_nodes = 200;
  SqprPlanner planner(&s.cluster, &s.catalog, options);
  ASSERT_TRUE(planner.SubmitQuery(q01)->admitted);  // host 0's CPU is gone

  const std::string fingerprint = planner.deployment().Fingerprint();
  const uint64_t version = planner.deployment().version();
  Result<PlanningStats> rejected = planner.SubmitQuery(q23);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->admitted);
  EXPECT_EQ(rejected->commit_ms, 0.0);
  EXPECT_EQ(planner.deployment().Fingerprint(), fingerprint);
  EXPECT_EQ(planner.deployment().version(), version);
  ASSERT_EQ(planner.admitted_queries().size(), 1u);
  EXPECT_EQ(planner.admitted_queries()[0], q01);
}

// A purge that takes the only support of several admitted plans evicts
// them all, in admission order, in one removal: no audit runs while an
// ungrounded serving is still committed. Only host 2 can run the joins
// of the queries reading hosts 0 and 1 (hosts 0 and 1 have no CPU, host
// 3 no incoming bandwidth); the query over host 3's streams survives.
TEST(SqprPlannerTest, PurgeHostEvictsEveryUngroundedQuery) {
  Scenario s(4, 8);
  for (HostId h : {0, 1}) {
    HostSpec spec = s.cluster.host(h);
    spec.cpu = 0.0;
    s.cluster.SetHostSpec(h, spec);
  }
  HostSpec no_inflow = s.cluster.host(3);
  no_inflow.nic_in_mbps = 0.0;
  s.cluster.SetHostSpec(3, no_inflow);
  // Stream ids ascend in creation order; admission runs in another.
  const StreamId q01 = s.Join({s.base[0], s.base[1]});
  const StreamId q05 = s.Join({s.base[0], s.base[5]});
  const StreamId q45 = s.Join({s.base[4], s.base[5]});
  const StreamId q37 = s.Join({s.base[3], s.base[7]});
  SqprPlanner planner = s.MakeSqpr();
  for (StreamId q : {q45, q37, q05, q01}) {
    ASSERT_TRUE(planner.SubmitQuery(q)->admitted) << q;
  }

  s.cluster.SetHostSpec(2, HostSpec{0.0, 0.0, 0.0, "failed", 0.0});
  const Result<std::vector<StreamId>> purged = planner.PurgeHost(2);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  EXPECT_EQ(*purged, (std::vector<StreamId>{q45, q05, q01}));
  EXPECT_EQ(planner.admitted_queries(), std::vector<StreamId>{q37});
  for (StreamId q : *purged) {
    EXPECT_EQ(planner.deployment().ServingHost(q), kInvalidHost) << q;
  }
  const Status valid = planner.deployment().Validate();
  EXPECT_TRUE(valid.ok() || valid.IsResourceExhausted()) << valid.ToString();
  EXPECT_TRUE(planner.deployment().OperatorsOn(2).empty());
  for (StreamId st : planner.deployment().FlowStreams()) {
    for (const auto& [from, to] : planner.deployment().FlowsOf(st)) {
      EXPECT_TRUE(from != 2 && to != 2) << from << ">" << to << ":" << st;
    }
  }
}

// The exact admission screen against the model it stands in for. On
// randomized arrival/departure traces over tight clusters, every arrival
// the screen rejects is re-solved as the full reduced MILP on the same
// committed deployment, which must prove that it admits nothing; the
// planner must report the screen's verdict and commit nothing. The relay,
// no-relay and potentials formulations take turns. Mid-trace one host
// fails (zero budgets, then EvictOverBudget and PurgeHost, as the
// service handles it) and later rejoins: the evicted queries, and the
// arrivals in between, that read a base stream injected at the failed
// host are screened by its dead leaf and re-solved the same way. At the
// failure, three-way joins over each of its base streams arrive too: two
// of their three producers read that stream only through a composite.
TEST(SqprScreenTest, ScreenedArrivalsAreRejectedByTheFullModel) {
  int screened = 0;
  int source_down = 0;  // verdicts on a query reading from the failed host
  int three_way_down = 0;  // of those, on three-way joins
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario s(3, 8, /*cpu=*/0.2, /*nic=*/40.0, /*link=*/60.0);
    Rng rng(seed);
    SqprPlanner::Options options;
    options.timeout_ms = 60000;
    options.max_nodes = 5000;
    options.model.enable_relay = seed % 3 != 1;
    if (seed % 3 == 2) options.model.acyclicity = AcyclicityMode::kPotentials;
    SqprPlanner planner = s.MakeSqpr(options);
    const HostId failed = static_cast<HostId>(seed % 3);
    const HostSpec healthy = s.cluster.host(failed);
    bool down = false;

    // Screens q against the full model, then submits it.
    auto submit = [&](StreamId q, int step) {
      ASSERT_TRUE(planner.WarmCatalog(q).ok());
      const Deployment& committed = planner.deployment();
      const std::vector<StreamId>& admitted = planner.admitted_queries();

      // The relevant sets and demands of the planner's solve.
      const Closure closure = *s.catalog.JoinClosure(q);
      std::vector<StreamId> streams = closure.streams;
      std::vector<OperatorId> operators = closure.operators;
      std::sort(streams.begin(), streams.end());
      std::sort(operators.begin(), operators.end());
      std::vector<DemandSpec> demands = {{q, /*must_serve=*/false}};
      for (StreamId a : admitted) {
        if (a != q && std::binary_search(streams.begin(), streams.end(), a)) {
          demands.push_back({a, /*must_serve=*/true});
        }
      }
      const bool served = committed.ServingHost(q) != kInvalidHost;
      const bool hopeless =
          !served && AdmissionHopeless(committed, streams, operators, {q});
      if (hopeless) {
        ++screened;
        const std::vector<StreamId>& leaves = s.catalog.stream(q).leaves;
        for (StreamId leaf : leaves) {
          if (down && s.catalog.stream(leaf).source_host == failed) {
            ++source_down;
            if (leaves.size() == 3) ++three_way_down;
            break;
          }
        }
        SqprMip mip(committed, streams, operators, demands, options.model);
        SqprMip::CycleCutHandler handler(&mip);
        const std::vector<double> warm = mip.WarmStart();
        milp::SolverOptions solver_options;
        solver_options.warm_start = &warm;
        if (options.model.acyclicity == AcyclicityMode::kLazyCycleCuts) {
          solver_options.lazy = &handler;
        }
        const milp::MipResult r = milp::Solver().Solve(mip.mip(),
                                                       solver_options);
        ASSERT_EQ(r.status, milp::MipStatus::kOptimal)
            << "seed " << seed << " step " << step;
        EXPECT_FALSE(mip.Serves(r.x, q))
            << "seed " << seed << " step " << step << ": screened query "
            << q << " admitted by the full model";
      }
      const std::string before = committed.Fingerprint();
      const Result<PlanningStats> stats = planner.SubmitQuery(q);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->screened, hopeless) << "seed " << seed;
      if (hopeless) {
        EXPECT_FALSE(stats->admitted);
        EXPECT_EQ(stats->solver_nodes, 0);
        EXPECT_EQ(planner.deployment().Fingerprint(), before);
      }
    };

    for (int step = 0; step < 40; ++step) {
      if (step == 12) {  // the host fails
        HostSpec dead;
        dead.cpu = 0.0;
        dead.mem_mb = 0.0;
        s.cluster.SetHostSpec(failed, dead);
        down = true;
        std::vector<StreamId> evicted;
        ASSERT_TRUE(EvictOverBudget(&planner, [&](StreamId q) {
                      evicted.push_back(q);
                    }).ok());
        const Result<std::vector<StreamId>> purged = planner.PurgeHost(failed);
        ASSERT_TRUE(purged.ok()) << purged.status().ToString();
        ASSERT_TRUE(planner.deployment().Validate().ok())
            << "seed " << seed << ": over budget after the purge";
        evicted.insert(evicted.end(), purged->begin(), purged->end());
        for (StreamId q : evicted) {
          submit(q, step);
          if (HasFatalFailure()) return;
        }
        // Base stream i is injected at host i % 3: each failed leaf
        // joined with one leaf of each healthy host.
        for (size_t dead = failed; dead < s.base.size(); dead += 3) {
          submit(s.Join({s.base[dead], s.base[(failed + 1) % 3],
                         s.base[(failed + 2) % 3 + 3]}),
                 step);
          if (HasFatalFailure()) return;
        }
        continue;
      }
      if (step == 28) {  // it rejoins
        s.cluster.SetHostSpec(failed, healthy);
        down = false;
      }
      const std::vector<StreamId>& admitted = planner.admitted_queries();
      if (!admitted.empty() && rng.NextBounded(4) == 0) {
        const StreamId victim = admitted[rng.NextBounded(admitted.size())];
        ASSERT_TRUE(planner.RemoveQueries({victim}).ok());
        continue;
      }
      std::vector<StreamId> leaves = s.base;
      for (size_t i = 0; i < 3; ++i) {  // a random 2- or 3-way join
        std::swap(leaves[i], leaves[i + rng.NextBounded(leaves.size() - i)]);
      }
      leaves.resize(2 + rng.NextBounded(2));
      submit(s.Join(leaves), step);
      if (HasFatalFailure()) return;
    }
  }
  // Not vacuous: the traces saturate the cluster, and the failure
  // screens queries on their down source: 88 verdicts, 57 of them on
  // three-way joins; 3 and 0 without the dead-leaf test, 31 and 0 with
  // the producer-level sender condition it replaced.
  EXPECT_GE(screened, 10);
  EXPECT_GE(source_down, 75);
  EXPECT_GE(three_way_down, 45);
}

// The dead-leaf test's side condition. Leaf a's source host can neither
// send a nor run any join that reads it, but it runs a cheap filter of a
// whose output it can send, and a join over that filtered input (a
// producer of join{a,b} that no join closure holds) is committed on the
// other host. That committed join supplies join{a,b} to the model, so the
// three-way query over a is servable and must not be screened.
TEST(SqprScreenTest, DeadLeafNeedsEveryProducerBuiltOnItRelevant) {
  Scenario s(2, 4);  // base 0 and 2 at host 0, 1 and 3 at host 1
  const StreamId a = s.base[0];
  const StreamId b = s.base[1];
  const StreamId q = s.Join({a, b, s.base[3]});
  const Closure closure = *s.catalog.JoinClosure(q);
  const OperatorId filter = *s.catalog.UnaryOperator(OpKind::kFilter, a,
                                                     /*tag=*/1, 0.1);
  const StreamId filtered = s.catalog.op(filter).output;
  const OperatorId join_fb = *s.catalog.JoinOperator(filtered, b);
  ASSERT_EQ(s.catalog.op(join_fb).output, s.Join({a, b}));
  HostSpec source = s.cluster.host(0);
  source.cpu = s.catalog.op(filter).cpu_cost;
  source.nic_out_mbps = s.catalog.stream(filtered).rate_mbps;
  s.cluster.SetHostSpec(0, source);

  Deployment committed(&s.cluster, &s.catalog);
  ASSERT_TRUE(committed.PlaceOperator(0, filter).ok());
  ASSERT_TRUE(committed.AddFlow(0, 1, filtered).ok());
  ASSERT_TRUE(committed.PlaceOperator(1, join_fb).ok());
  ASSERT_TRUE(committed.Validate().ok()) << committed.Validate().ToString();

  std::vector<StreamId> streams = closure.streams;
  std::vector<OperatorId> operators = closure.operators;
  std::sort(streams.begin(), streams.end());
  std::sort(operators.begin(), operators.end());
  EXPECT_LT(source.nic_out_mbps, s.catalog.stream(a).rate_mbps - 1e-6);
  for (OperatorId o : operators) {
    const std::vector<StreamId>& in = s.catalog.op(o).inputs;
    if (std::binary_search(in.begin(), in.end(), a)) {
      EXPECT_LT(source.cpu, s.catalog.op(o).cpu_cost - 1e-6);
    }
  }
  EXPECT_FALSE(AdmissionHopeless(committed, streams, operators, {q}));

  SqprMip mip(committed, streams, operators, {{q, /*must_serve=*/false}},
              SqprModelOptions{});
  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions options;
  options.lazy = &handler;
  const milp::MipResult r = milp::Solver().Solve(mip.mip(), options);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);
  EXPECT_TRUE(mip.Serves(r.x, q));
}

}  // namespace
}  // namespace sqpr
