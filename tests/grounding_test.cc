// Differential tests of the Deployment's maintained availability (y_hs):
// after every mutator call, Deployment::Grounded must equal a least
// fixpoint computed from scratch by the oracle below, which is written
// here and reads the deployment only through its structural lookups
// (placements and flows), never through its availability state.

#include "plan/deployment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

using HostStream = std::pair<HostId, StreamId>;

/// Naive least fixpoint: seed every base stream at its source host, then
/// sweep operators and flows until nothing new is grounded.
std::set<HostStream> OracleGrounded(const Deployment& dep) {
  const Catalog& catalog = dep.catalog();
  const int num_hosts = dep.cluster().num_hosts();
  std::set<HostStream> grounded;
  for (StreamId s = 0; s < catalog.num_streams(); ++s) {
    const StreamInfo& info = catalog.stream(s);
    if (info.is_base && info.source_host >= 0 &&
        info.source_host < num_hosts) {
      grounded.insert({info.source_host, s});
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (HostId h = 0; h < num_hosts; ++h) {
      for (OperatorId o : dep.OperatorsOn(h)) {
        const OperatorInfo& op = catalog.op(o);
        bool inputs = true;
        for (StreamId in : op.inputs) inputs &= grounded.count({h, in}) > 0;
        if (inputs && grounded.insert({h, op.output}).second) changed = true;
      }
    }
    for (StreamId s : dep.FlowStreams()) {
      for (const auto& [from, to] : dep.FlowsOf(s)) {
        if (grounded.count({from, s}) > 0 &&
            grounded.insert({to, s}).second) {
          changed = true;
        }
      }
    }
  }
  return grounded;
}

/// Compares every (host, stream) pair of the catalog, and each host's
/// listed non-injected streams, against the oracle.
::testing::AssertionResult MatchesOracle(const Deployment& dep) {
  const std::set<HostStream> oracle = OracleGrounded(dep);
  const Catalog& catalog = dep.catalog();
  for (HostId h = 0; h < dep.cluster().num_hosts(); ++h) {
    std::vector<StreamId> listed;
    for (StreamId s = 0; s < catalog.num_streams(); ++s) {
      const bool want = oracle.count({h, s}) > 0;
      if (dep.Grounded(h, s) != want) {
        return ::testing::AssertionFailure()
               << "stream " << s << " at host " << h << ": maintained "
               << !want << ", least fixpoint " << want;
      }
      const StreamInfo& info = catalog.stream(s);
      if (want && !(info.is_base && info.source_host == h)) {
        listed.push_back(s);
      }
    }
    if (dep.GroundedOn(h) != listed) {
      return ::testing::AssertionFailure()
             << "host " << h << " lists " << dep.GroundedOn(h).size()
             << " grounded streams, least fixpoint " << listed.size();
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- Hand-built removals (a and b injected at host 0, c at host 1). ----

struct Fixture {
  Fixture()
      : catalog(CostModel{}),
        cluster(3, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0) {
    a = catalog.AddBaseStream(0, 10.0, "a");
    b = catalog.AddBaseStream(0, 10.0, "b");
    c = catalog.AddBaseStream(1, 10.0, "c");
    join_ab = *catalog.JoinOperator(a, b);
    ab = catalog.op(join_ab).output;
    join_ab_c = *catalog.JoinOperator(ab, c);
    abc = catalog.op(join_ab_c).output;
  }

  Catalog catalog;
  Cluster cluster;
  StreamId a, b, c, ab, abc;
  OperatorId join_ab, join_ab_c;
};

TEST(DeploymentGroundingTest, RemovalUngroundsAChainAcrossAFlow) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.ab).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, f.join_ab_c).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.abc).ok());
  EXPECT_TRUE(dep.Grounded(2, f.abc));
  EXPECT_TRUE(MatchesOracle(dep));

  // Removing the producer at the root un-grounds ab at hosts 0 and 1
  // and, through the downstream join and flow, abc at hosts 1 and 2.
  ASSERT_TRUE(dep.RemoveOperator(0, f.join_ab).ok());
  EXPECT_TRUE(MatchesOracle(dep));
  for (HostId h = 0; h < 3; ++h) {
    EXPECT_FALSE(dep.Grounded(h, f.ab)) << h;
    EXPECT_FALSE(dep.Grounded(h, f.abc)) << h;
  }
}

TEST(DeploymentGroundingTest, RemovalKeepsStreamsWithAnotherSupport) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // ab produced at hosts 0 and 1; host 2 receives it from both.
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 2, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.ab).ok());

  // Host 0 loses its producer and its flow: ab un-grounds there only;
  // host 2 keeps it through the flow from host 1.
  ASSERT_TRUE(dep.RemoveFlow(0, 2, f.ab).ok());
  EXPECT_TRUE(MatchesOracle(dep));
  ASSERT_TRUE(dep.RemoveOperator(0, f.join_ab).ok());
  EXPECT_TRUE(MatchesOracle(dep));
  EXPECT_FALSE(dep.Grounded(0, f.ab));
  EXPECT_TRUE(dep.Grounded(1, f.ab));
  EXPECT_TRUE(dep.Grounded(2, f.ab));
  EXPECT_EQ(dep.GroundedOn(2), (std::vector<StreamId>{f.ab}));
}

TEST(DeploymentGroundingTest, RemovalUngroundsAFlowCycleThatLostItsRoot) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // ab produced at host 0 and fed into a cycle between hosts 1 and 2:
  // once the root flow goes, each cycle host still has one incoming
  // arc, from the other. A support count would keep both grounded.
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(2, 1, f.ab).ok());
  EXPECT_TRUE(dep.Grounded(1, f.ab));
  EXPECT_TRUE(dep.Grounded(2, f.ab));

  ASSERT_TRUE(dep.RemoveFlow(0, 1, f.ab).ok());
  EXPECT_TRUE(MatchesOracle(dep));
  EXPECT_TRUE(dep.Grounded(0, f.ab));
  EXPECT_FALSE(dep.Grounded(1, f.ab));
  EXPECT_FALSE(dep.Grounded(2, f.ab));
  EXPECT_TRUE(dep.Validate().IsInfeasible());  // the cycle is acausal
}

TEST(DeploymentGroundingTest, CopiesAndClearCarryTheMaintainedState) {
  Fixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.ab).ok());
  Deployment copy = dep;
  ASSERT_TRUE(copy.PlaceOperator(1, f.join_ab_c).ok());
  EXPECT_TRUE(copy.Grounded(1, f.abc));
  EXPECT_FALSE(dep.Grounded(1, f.abc));  // the original is untouched
  EXPECT_TRUE(MatchesOracle(copy));
  copy.Clear();
  EXPECT_TRUE(MatchesOracle(copy));
  EXPECT_FALSE(copy.Grounded(1, f.ab));
  EXPECT_TRUE(copy.Grounded(0, f.a));  // injection needs no state
}

// ---- Randomized service traces. ----

/// Moves `from` to the structure of `to` one mutator call at a time, in
/// a random order that interleaves removals and additions, checking
/// availability against the oracle after every call. Returns false on
/// the first mismatch (after recording the failure).
bool WalkTransition(const Deployment& to, Rng* rng, Deployment* from) {
  enum Kind { kRemoveOp, kAddOp, kRemoveFlow, kAddFlow };
  std::vector<std::tuple<Kind, HostId, HostId, int32_t>> calls;
  for (HostId h = 0; h < to.cluster().num_hosts(); ++h) {
    for (OperatorId o : from->OperatorsOn(h)) {
      if (!to.RunsOperator(h, o)) calls.emplace_back(kRemoveOp, h, h, o);
    }
    for (OperatorId o : to.OperatorsOn(h)) {
      if (!from->RunsOperator(h, o)) calls.emplace_back(kAddOp, h, h, o);
    }
  }
  for (StreamId s : from->FlowStreams()) {
    for (const auto& [a, b] : from->FlowsOf(s)) {
      if (!to.HasFlow(a, b, s)) calls.emplace_back(kRemoveFlow, a, b, s);
    }
  }
  for (StreamId s : to.FlowStreams()) {
    for (const auto& [a, b] : to.FlowsOf(s)) {
      if (!from->HasFlow(a, b, s)) calls.emplace_back(kAddFlow, a, b, s);
    }
  }
  for (size_t i = calls.size(); i > 1; --i) {
    std::swap(calls[i - 1], calls[rng->NextBounded(i)]);
  }
  for (const auto& [kind, h, m, id] : calls) {
    Status st;
    switch (kind) {
      case kRemoveOp: st = from->RemoveOperator(h, id); break;
      case kAddOp: st = from->PlaceOperator(h, id); break;
      case kRemoveFlow: st = from->RemoveFlow(h, m, id); break;
      case kAddFlow: st = from->AddFlow(h, m, id); break;
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
    const ::testing::AssertionResult same = MatchesOracle(*from);
    if (!same) {
      ADD_FAILURE() << "after call kind " << kind << " (" << h << ", " << m
                    << ", " << id << "): " << same.message();
      return false;
    }
  }
  // Two call orders reach the same structure, so the same availability.
  for (HostId h = 0; h < to.cluster().num_hosts(); ++h) {
    if (from->GroundedOn(h) != to.GroundedOn(h)) {
      ADD_FAILURE() << "host " << h << " differs after the transition";
      return false;
    }
  }
  return true;
}

struct TraceScenario {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Catalog> catalog;
  std::vector<Event> trace;
};

TraceScenario MakeTraceScenario(uint64_t seed) {
  TraceScenario s;
  s.cluster =
      std::make_unique<Cluster>(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
  s.catalog = std::make_unique<Catalog>(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 40;
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, s.catalog.get());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  TraceConfig tc;
  tc.num_events = 80;
  tc.seed = seed;
  tc.min_failures = 2;
  tc.min_drift_reports = 3;
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 3, *s.catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  s.trace = std::move(*trace);
  return s;
}

// Replays traces with host failures (EvictHost purges), drift cycles and
// departures (GC), under a normal solve budget and under an expired one
// (every admission is a greedy-fallback diff). Each event's transition
// is re-walked one mutator call at a time on a copy, and halfway through
// the service is checkpointed and restored into a fresh one, whose
// deployment is rebuilt through the mutators.
TEST(GroundingDifferentialTest, MaintainedStateIsTheLeastFixpointOnTraces) {
  const std::vector<std::pair<uint64_t, int64_t>> runs = {
      {3, 0}, {11, 0}, {29, 0}, {3, -1}, {11, -1}, {29, -1}};
  for (const auto& [seed, solve_deadline_ms] : runs) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " budget " +
                 std::to_string(solve_deadline_ms));
    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    options.planner.solve_deadline_ms = solve_deadline_ms;

    TraceScenario first = MakeTraceScenario(seed);
    auto service = std::make_unique<PlanningService>(
        first.cluster.get(), first.catalog.get(), options);
    for (const Event& e : first.trace) ASSERT_TRUE(service->Enqueue(e).ok());
    TraceScenario second;  // owns the restored service's cluster/catalog

    Rng rng(seed * 7919 + 1);
    const size_t restore_at = first.trace.size() / 2;
    for (size_t step = 0; service->HasPendingEvents(); ++step) {
      if (step == restore_at) {
        Result<std::string> checkpoint = service->ExportCheckpoint();
        ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
        second = MakeTraceScenario(seed);
        service = std::make_unique<PlanningService>(
            second.cluster.get(), second.catalog.get(), options);
        ASSERT_TRUE(service->RestoreCheckpoint(*checkpoint).ok());
        ASSERT_TRUE(MatchesOracle(service->deployment()))
            << "after restore at event " << step;
        for (size_t i = step; i < second.trace.size(); ++i) {
          ASSERT_TRUE(service->Enqueue(second.trace[i]).ok());
        }
      }
      Deployment before = service->deployment();
      ASSERT_TRUE(service->Step().ok());
      ASSERT_TRUE(MatchesOracle(service->deployment()))
          << "after event " << step;
      ASSERT_TRUE(WalkTransition(service->deployment(), &rng, &before))
          << "walking event " << step;
    }
    service->FinishInFlightRound();
    EXPECT_TRUE(MatchesOracle(service->deployment()));
    // The traces must reach the paths under test (the counters survive
    // the restore).
    EXPECT_GT(service->stats().evictions, 0);
    EXPECT_GT(service->stats().host_failures, 0);
    if (solve_deadline_ms < 0) {
      EXPECT_GT(service->stats().heuristic_fallbacks, 0);
    }
  }
}

}  // namespace
}  // namespace sqpr
