// Randomised lifecycle fuzzing: interleave submissions, removals and
// §IV-B replans against the SQPR planner and audit the full §III
// invariants after every mutation. Any sequencing bug in commit /
// garbage-collection / ledger maintenance shows up as a Validate()
// failure with the seed that produced it.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "monitor/resource_monitor.h"
#include "plan/query_plan.h"
#include "planner/sqpr/sqpr_planner.h"
#include "tests/drift_readmit.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

class PlannerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerFuzzTest, InvariantsHoldUnderRandomLifecycles) {
  const uint64_t seed = 0xf022 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(4, HostSpec{0.6, 90.0, 90.0, ""}, 180.0);
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 40;
  wc.arities = {2, 3};
  wc.seed = seed;
  Workload workload = *GenerateWorkload(wc, 4, &catalog);

  SqprPlanner::Options options;
  options.timeout_ms = 80;
  SqprPlanner planner(&cluster, &catalog, options);

  size_t next_query = 0;
  for (int step = 0; step < 60; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.6 && next_query < workload.queries.size()) {
      // Submit the next workload query.
      Result<PlanningStats> stats =
          planner.SubmitQuery(workload.queries[next_query++]);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    } else if (dice < 0.8 && !planner.admitted_queries().empty()) {
      // Remove a random admitted query.
      const auto& admitted = planner.admitted_queries();
      if (!admitted.empty()) {
        const StreamId victim =
            admitted[rng.NextUint64() % admitted.size()];
        ASSERT_TRUE(planner.RemoveQueries({victim}).ok());
      }
    } else if (!planner.admitted_queries().empty()) {
      // Replan a random admitted query (§IV-B path).
      const auto& admitted = planner.admitted_queries();
      const StreamId q = admitted[rng.NextUint64() % admitted.size()];
      ASSERT_TRUE(planner.RemoveQueries({q}).ok());
      Result<PlanningStats> stats = planner.SubmitQuery(q);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }

    // Full §III audit after every mutation.
    const Status audit = planner.deployment().Validate();
    ASSERT_TRUE(audit.ok())
        << "seed " << seed << " step " << step << ": " << audit.ToString();

    // Every admitted query must have an extractable, C1-C4-valid plan.
    for (StreamId q : planner.admitted_queries()) {
      Result<QueryPlan> plan = ExtractPlan(planner.deployment(), q);
      ASSERT_TRUE(plan.ok())
          << "seed " << seed << " step " << step << " query " << q << ": "
          << plan.status().ToString();
    }

    // No admitted duplicates.
    const std::set<StreamId> unique(planner.admitted_queries().begin(),
                                    planner.admitted_queries().end());
    ASSERT_EQ(unique.size(), planner.admitted_queries().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerFuzzTest, ::testing::Range(0, 8));

/// The same lifecycle fuzz with periodic measured-rate perturbations
/// through the §IV-B adaptive cycle.
class AdaptiveFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveFuzzTest, AdaptiveCycleKeepsInvariants) {
  const uint64_t seed = 0xad4e + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(3, HostSpec{0.5, 120.0, 120.0, ""}, 240.0);
  std::vector<StreamId> base;
  for (int i = 0; i < 10; ++i) {
    base.push_back(catalog.AddBaseStream(i % 3, 10.0));
  }
  SqprPlanner::Options options;
  options.timeout_ms = 100;
  SqprPlanner planner(&cluster, &catalog, options);
  ResourceMonitor monitor(&catalog, DriftOptions{});

  for (int round = 0; round < 6; ++round) {
    // Submit a couple of random 2-way joins.
    for (int i = 0; i < 3; ++i) {
      const StreamId a = base[rng.NextUint64() % base.size()];
      StreamId b = base[rng.NextUint64() % base.size()];
      if (a == b) continue;
      Result<StreamId> q = catalog.CanonicalJoinStream({a, b});
      ASSERT_TRUE(q.ok());
      ASSERT_TRUE(planner.SubmitQuery(*q).ok());
    }

    // Perturb one base stream's measured rate in [5, 25] Mbps.
    std::map<StreamId, double> measured;
    const StreamId drifting = base[rng.NextUint64() % base.size()];
    measured[drifting] = 5.0 + 20.0 * rng.NextDouble();

    const DriftReport report =
        monitor.Analyze(measured, std::vector<double>(3, 0.5),
                        planner.admitted_queries(), planner.deployment());
    Result<std::vector<PlanningStats>> stats =
        DriftAndReadmit(&planner, &catalog, measured, report);
    ASSERT_TRUE(stats.ok())
        << "seed " << seed << " round " << round << ": "
        << stats.status().ToString();

    const Status audit = planner.deployment().Validate();
    ASSERT_TRUE(audit.ok())
        << "seed " << seed << " round " << round << ": " << audit.ToString();
    // The installed estimate must be what the monitor measured.
    EXPECT_DOUBLE_EQ(catalog.stream(drifting).rate_mbps, measured[drifting]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveFuzzTest, ::testing::Range(0, 6));

/// Model-patch fuzzing for the incremental solve path: random
/// interleavings of admissions, evictions and rate drift against the
/// planner with Options::verify_incremental on — every cache hit then
/// rebuilds the model from scratch and SQPR_CHECKs the patched skeleton
/// bit-identical (variable/row counts, every bound, term and objective
/// coefficient), so a stale row or column surviving a structure change
/// aborts the test at the first divergent solve.
class ModelPatchFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelPatchFuzzTest, PatchedModelsMatchFreshBuilds) {
  const uint64_t seed = 0x9a7c + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(4, HostSpec{0.6, 90.0, 90.0, ""}, 180.0);
  WorkloadConfig wc;
  wc.num_base_streams = 16;
  wc.num_queries = 30;
  wc.arities = {2, 3};
  wc.seed = seed;
  Workload workload = *GenerateWorkload(wc, 4, &catalog);

  SqprPlanner::Options options;
  options.timeout_ms = 150;
  options.verify_incremental = true;
  SqprPlanner planner(&cluster, &catalog, options);
  ResourceMonitor monitor(&catalog, DriftOptions{});

  int64_t patched = 0;
  size_t next_query = 0;
  for (int step = 0; step < 50; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45 && next_query < workload.queries.size()) {
      Result<PlanningStats> stats =
          planner.SubmitQuery(workload.queries[next_query++]);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (stats->model_patched) ++patched;
    } else if (dice < 0.6 && !planner.admitted_queries().empty()) {
      const auto& admitted = planner.admitted_queries();
      const StreamId victim = admitted[rng.NextUint64() % admitted.size()];
      ASSERT_TRUE(planner.RemoveQueries({victim}).ok());
    } else if (dice < 0.9 && !planner.admitted_queries().empty()) {
      // Replans repeat a solve structure almost verbatim — the densest
      // source of cache hits, hence of verified patches.
      const auto& admitted = planner.admitted_queries();
      const StreamId q = admitted[rng.NextUint64() % admitted.size()];
      ASSERT_TRUE(planner.RemoveQueries({q}).ok());
      Result<PlanningStats> stats = planner.SubmitQuery(q);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (stats->model_patched) ++patched;
    } else if (!planner.admitted_queries().empty()) {
      // Drift: bumps the catalog's rate epoch, so every cached model
      // must become unreachable (a hit *after* this would verify
      // against a fresh build under the new rates and abort on the
      // first stale coefficient).
      std::map<StreamId, double> measured;
      const StreamId drifting =
          workload
              .base_streams[rng.NextUint64() % workload.base_streams.size()];
      measured[drifting] = 5.0 + 20.0 * rng.NextDouble();
      const DriftReport report =
          monitor.Analyze(measured, std::vector<double>(4, 0.5),
                          planner.admitted_queries(), planner.deployment());
      Result<std::vector<PlanningStats>> stats =
          DriftAndReadmit(&planner, &catalog, measured, report);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    const Status audit = planner.deployment().Validate();
    ASSERT_TRUE(audit.ok())
        << "seed " << seed << " step " << step << ": " << audit.ToString();
  }
  // The fuzz must actually hit the cache for the verification to mean
  // anything.
  EXPECT_GT(patched, 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPatchFuzzTest, ::testing::Range(0, 6));

/// One batch vs one query at a time: on randomized lifecycles, removing
/// a random admitted subset with one RemoveQueries call and with a loop
/// of single-query calls on a copy of the same state must commit the
/// same structure, bump the versions equally and, once both ledgers are
/// rebuilt, agree bit for bit. GC commutes with batching because its mark
/// keeps every grounded support of a needed pair.
class BatchRemovalTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchRemovalTest, OneBatchMatchesOneAtATime) {
  const uint64_t seed = 0xba7c + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(4, HostSpec{0.6, 90.0, 90.0, ""}, 180.0);
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 60;
  wc.arities = {2, 3};
  wc.seed = seed;
  Workload workload = *GenerateWorkload(wc, 4, &catalog);

  SqprPlanner::Options options;
  options.timeout_ms = 80;
  SqprPlanner batched(&cluster, &catalog, options);

  size_t next_query = 0;
  int removed = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 12 && next_query < workload.queries.size(); ++i) {
      ASSERT_TRUE(batched.SubmitQuery(workload.queries[next_query++]).ok());
    }
    std::vector<StreamId> batch;
    for (StreamId q : batched.admitted_queries()) {
      if (rng.NextBounded(2) == 0) batch.push_back(q);
    }
    for (size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[rng.NextBounded(i)]);
    }
    removed += static_cast<int>(batch.size());

    SqprPlanner looped(&cluster, &catalog, options);
    *looped.mutable_deployment() = batched.deployment();
    looped.RestoreAdmitted(batched.admitted_queries());

    const Status batch_status = batched.RemoveQueries(batch);
    Status loop_status;
    for (StreamId q : batch) loop_status = looped.RemoveQueries({q});
    ASSERT_TRUE(batch_status.ok()) << batch_status.ToString();
    ASSERT_TRUE(loop_status.ok()) << loop_status.ToString();

    const Deployment& a = batched.deployment();
    const Deployment& b = looped.deployment();
    ASSERT_EQ(a.Fingerprint(), b.Fingerprint())
        << "seed " << seed << " round " << round;
    EXPECT_EQ(a.version(), b.version()) << "round " << round;
    EXPECT_EQ(a.structure_version(), b.structure_version())
        << "round " << round;
    EXPECT_EQ(batched.admitted_queries(), looped.admitted_queries());

    batched.RefreshAccounting();
    looped.RefreshAccounting();
    for (HostId h = 0; h < cluster.num_hosts(); ++h) {
      EXPECT_EQ(a.CpuUsed(h), b.CpuUsed(h)) << "host " << h;
      EXPECT_EQ(a.MemUsed(h), b.MemUsed(h)) << "host " << h;
      EXPECT_EQ(a.NicOutUsed(h), b.NicOutUsed(h)) << "host " << h;
      EXPECT_EQ(a.NicInUsed(h), b.NicInUsed(h)) << "host " << h;
      for (HostId m = 0; m < cluster.num_hosts(); ++m) {
        EXPECT_EQ(a.LinkUsed(h, m), b.LinkUsed(h, m)) << h << ">" << m;
      }
    }
  }
  // Not vacuous: the rounds remove multi-query batches.
  EXPECT_GE(removed, 10) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchRemovalTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace sqpr
