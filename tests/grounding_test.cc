// Differential tests of the Deployment's maintained availability (y_hs):
// after every Apply, Deployment::Grounded must equal a least fixpoint
// computed from scratch by the oracle below, which is written here and
// reads the deployment only through its structural lookups (placements
// and flows), never through its availability state. Also pins the
// host-failure eviction policy on the same randomized traces.

#include "plan/deployment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/audit.h"
#include "plan/query_plan.h"
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

/// One-fact removal deltas.
DeploymentDelta FlowRemoval(HostId from, HostId to, StreamId s) {
  DeploymentDelta delta;
  delta.flows_removed.emplace_back(from, to, s);
  return delta;
}
DeploymentDelta OperatorRemoval(HostId h, OperatorId o) {
  DeploymentDelta delta;
  delta.ops_removed.emplace_back(h, o);
  return delta;
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
  ASSERT_TRUE(dep.Apply(OperatorRemoval(0, f.join_ab)).ok());
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
  ASSERT_TRUE(dep.Apply(FlowRemoval(0, 2, f.ab)).ok());
  EXPECT_TRUE(MatchesOracle(dep));
  ASSERT_TRUE(dep.Apply(OperatorRemoval(0, f.join_ab)).ok());
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

  ASSERT_TRUE(dep.Apply(FlowRemoval(0, 1, f.ab)).ok());
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

/// The facts turning `from` into `to`, as one delta.
DeploymentDelta Diff(const Deployment& from, const Deployment& to) {
  DeploymentDelta delta;
  for (HostId h = 0; h < to.cluster().num_hosts(); ++h) {
    for (OperatorId o : from.OperatorsOn(h)) {
      if (!to.RunsOperator(h, o)) delta.ops_removed.emplace_back(h, o);
    }
    for (OperatorId o : to.OperatorsOn(h)) {
      if (!from.RunsOperator(h, o)) delta.ops_added.emplace_back(h, o);
    }
  }
  for (StreamId s : from.FlowStreams()) {
    for (const auto& [a, b] : from.FlowsOf(s)) {
      if (!to.HasFlow(a, b, s)) delta.flows_removed.emplace_back(a, b, s);
    }
  }
  for (StreamId s : to.FlowStreams()) {
    for (const auto& [a, b] : to.FlowsOf(s)) {
      if (!from.HasFlow(a, b, s)) delta.flows_added.emplace_back(a, b, s);
    }
  }
  std::set<StreamId> served;
  for (StreamId s : from.ServedStreams()) served.insert(s);
  for (StreamId s : to.ServedStreams()) served.insert(s);
  for (StreamId s : served) {
    if (from.ServingHost(s) != to.ServingHost(s)) {
      delta.serving_changes.push_back(
          {s, from.ServingHost(s), to.ServingHost(s)});
    }
  }
  return delta;
}

/// Appends every fact of `more` to `delta`.
void Append(const DeploymentDelta& more, DeploymentDelta* delta) {
  auto append = [](const auto& from, auto* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(more.flows_removed, &delta->flows_removed);
  append(more.ops_removed, &delta->ops_removed);
  append(more.serving_changes, &delta->serving_changes);
  append(more.ops_added, &delta->ops_added);
  append(more.flows_added, &delta->flows_added);
}

/// The facts of `delta` as one-fact deltas, in Apply's order.
std::vector<DeploymentDelta> Split(const DeploymentDelta& delta) {
  std::vector<DeploymentDelta> facts;
  for (const auto& f : delta.flows_removed) {
    facts.emplace_back().flows_removed.push_back(f);
  }
  for (const auto& o : delta.ops_removed) {
    facts.emplace_back().ops_removed.push_back(o);
  }
  for (const auto& c : delta.serving_changes) {
    facts.emplace_back().serving_changes.push_back(c);
  }
  for (const auto& o : delta.ops_added) {
    facts.emplace_back().ops_added.push_back(o);
  }
  for (const auto& f : delta.flows_added) {
    facts.emplace_back().flows_added.push_back(f);
  }
  return facts;
}

/// Every ledger value (CPU, memory, NIC in/out per host, every link), as
/// bit patterns.
std::vector<uint64_t> LedgerBits(const Deployment& dep) {
  std::vector<double> values;
  const int num_hosts = dep.cluster().num_hosts();
  for (HostId h = 0; h < num_hosts; ++h) {
    values.insert(values.end(), {dep.CpuUsed(h), dep.MemUsed(h),
                                 dep.NicOutUsed(h), dep.NicInUsed(h)});
    for (HostId m = 0; m < num_hosts; ++m) values.push_back(dep.LinkUsed(h, m));
  }
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

/// Moves copies of `from` to the structure of `to` by the facts of
/// their diff in a random order that interleaves removals and additions,
/// three ways: one fact per Apply, random sub-deltas, and the whole
/// transition as one delta. After each Apply, availability must equal
/// the oracle, and the ledgers and version must equal, bit for bit, a
/// copy that applied the same facts one call at a time in Apply's
/// order. Then the whole transition plus one malformed change (a
/// self-flow, or a serving change whose `before` does not match) must
/// be rejected with nothing applied. Returns false on the first
/// mismatch (after recording the failure).
bool WalkTransition(const Deployment& to, Rng* rng, const Deployment& from) {
  std::vector<DeploymentDelta> facts = Split(Diff(from, to));
  for (size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng->NextBounded(i)]);
  }
  std::vector<size_t> random_sizes;
  for (size_t left = facts.size(); left > 0;) {
    random_sizes.push_back(1 + rng->NextBounded(std::min<size_t>(left, 6)));
    left -= random_sizes.back();
  }
  const std::vector<std::vector<size_t>> chunkings = {
      std::vector<size_t>(facts.size(), 1), random_sizes, {facts.size()}};
  for (size_t way = 0; way < chunkings.size(); ++way) {
    Deployment batched = from;
    Deployment factwise = from;
    size_t begin = 0;
    for (size_t size : chunkings[way]) {
      DeploymentDelta chunk;
      for (size_t i = begin; i < begin + size; ++i) Append(facts[i], &chunk);
      begin += size;
      const Status st = batched.Apply(chunk);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (const DeploymentDelta& fact : Split(chunk)) {
        EXPECT_TRUE(factwise.Apply(fact).ok());
      }
      const ::testing::AssertionResult same = MatchesOracle(batched);
      if (!same) {
        ADD_FAILURE() << "way " << way << ", facts up to " << begin << ": "
                      << same.message();
        return false;
      }
      if (LedgerBits(batched) != LedgerBits(factwise) ||
          batched.version() != factwise.version() ||
          batched.structure_version() != factwise.structure_version()) {
        ADD_FAILURE() << "way " << way << ", facts up to " << begin
                      << ": ledgers or versions differ from one call per fact";
        return false;
      }
    }
    // Every order reaches the same structure, so the same availability.
    if (batched.Fingerprint() != to.Fingerprint()) {
      ADD_FAILURE() << "way " << way << " reaches another structure";
      return false;
    }
    for (HostId h = 0; h < to.cluster().num_hosts(); ++h) {
      if (batched.GroundedOn(h) != to.GroundedOn(h)) {
        ADD_FAILURE() << "way " << way << ": host " << h
                      << " differs after the transition";
        return false;
      }
    }
  }

  DeploymentDelta bad = Diff(from, to);
  const StreamId s = 0;
  const HostId served = from.ServingHost(s);
  if (rng->NextBool(0.5)) {
    bad.flows_added.emplace_back(1, 1, s);
  } else if (served == kInvalidHost) {
    bad.serving_changes.insert(bad.serving_changes.begin(), {s, 0, 1});
  } else {
    bad.serving_changes.insert(
        bad.serving_changes.begin(),
        {s, kInvalidHost, (served + 1) % to.cluster().num_hosts()});
  }
  Deployment probe = from;
  const Status st = probe.Apply(bad);
  EXPECT_TRUE(st.IsInvalidArgument() || st.IsFailedPrecondition())
      << st.ToString();
  bool unchanged = probe.Fingerprint() == from.Fingerprint() &&
                   LedgerBits(probe) == LedgerBits(from) &&
                   probe.version() == from.version() &&
                   probe.structure_version() == from.structure_version();
  for (HostId h = 0; h < to.cluster().num_hosts(); ++h) {
    unchanged &= probe.GroundedOn(h) == from.GroundedOn(h);
  }
  if (!unchanged) {
    ADD_FAILURE() << "a rejected delta changed the deployment";
    return false;
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

// Replays traces with host failures (evictions and purges), drift
// cycles and departures (GC), under a normal solve budget and under an
// expired one (every admission is a greedy-fallback diff). Each event's
// transition is re-walked on copies (WalkTransition), and halfway
// through the service is checkpointed and restored into a fresh one,
// whose deployment is rebuilt through the one-fact mutators.
TEST(GroundingDifferentialTest, MaintainedStateIsTheLeastFixpointOnTraces) {
  const std::vector<std::pair<uint64_t, int64_t>> runs = {
      {3, 60000}, {11, 60000}, {29, 60000}, {3, 0}, {11, 0}, {29, 0}};
  for (const auto& [seed, timeout_ms] : runs) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " budget " +
                 std::to_string(timeout_ms));
    ServiceOptions options;
    options.planner.timeout_ms = timeout_ms;
    options.planner.max_nodes = 150;

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
      ASSERT_TRUE(WalkTransition(service->deployment(), &rng, before))
          << "walking event " << step;
    }
    service->FinishInFlightRound();
    EXPECT_TRUE(MatchesOracle(service->deployment()));
    // The traces must reach the paths under test (the counters survive
    // the restore).
    EXPECT_GT(service->stats().evictions, 0);
    EXPECT_GT(service->stats().host_failures, 0);
    if (timeout_ms == 0) {
      EXPECT_GT(service->stats().heuristic_fallbacks, 0);
    }
  }
}

// A failed host is a host whose budgets drop to zero, evicted through
// the shortage loop (EvictOverBudget). Oracle: the queries whose
// extracted plans use the host before the failure, in admission order,
// are the first evicted, and nothing is left on the host.
TEST(HostFailureEvictionTest, EvictsThePlanUsersOfTheHostInAdmissionOrder) {
  int failures = 0;
  for (uint64_t seed : {3, 11, 29, 47}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TraceScenario scenario = MakeTraceScenario(seed);
    obs::AuditJournal journal;
    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    options.audit = &journal;
    PlanningService service(scenario.cluster.get(), scenario.catalog.get(),
                            options);
    for (const Event& e : scenario.trace) {
      ASSERT_TRUE(service.Enqueue(e).ok());
    }
    for (const Event& event : scenario.trace) {
      const HostId h = event.host;
      if (event.kind != EventKind::kHostFailure || !service.HostActive(h)) {
        ASSERT_TRUE(service.Step().ok());
        continue;
      }
      // The failure commits the pending round first; do it here so the
      // oracle reads the state the failure meets.
      service.FinishInFlightRound();
      std::vector<int64_t> plan_users;
      for (StreamId q : service.admitted_queries()) {
        if (PlanUsesHost(service.deployment(), q, h)) plan_users.push_back(q);
      }
      const size_t first_record = journal.records().size();
      ASSERT_TRUE(service.Step().ok());
      ++failures;

      std::vector<int64_t> evicted;
      for (size_t i = first_record; i < journal.records().size(); ++i) {
        const obs::AuditRecord& r = journal.records()[i];
        if (r.kind == "evict.host_failure") evicted.push_back(r.query);
      }
      ASSERT_GE(evicted.size(), plan_users.size());
      EXPECT_EQ(std::vector<int64_t>(evicted.begin(),
                                     evicted.begin() + plan_users.size()),
                plan_users);

      const Deployment& dep = service.deployment();
      EXPECT_TRUE(dep.OperatorsOn(h).empty());
      for (StreamId s : dep.FlowStreams()) {
        for (const auto& [from, to] : dep.FlowsOf(s)) {
          EXPECT_TRUE(from != h && to != h) << "flow of " << s;
        }
      }
      for (StreamId s : dep.ServedStreams()) EXPECT_NE(dep.ServingHost(s), h);
      for (StreamId q : service.admitted_queries()) {
        const HostId server = dep.ServingHost(q);
        ASSERT_NE(server, kInvalidHost) << "query " << q;
        EXPECT_TRUE(dep.Grounded(server, q)) << "query " << q;
      }
      const Status valid = dep.Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }
  EXPECT_GE(failures, 8);  // at least two per trace
}

}  // namespace
}  // namespace sqpr
