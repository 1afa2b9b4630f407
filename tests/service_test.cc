// Tests for the continuous planning service: deterministic event loop,
// plan-reuse cache, bounded re-planning rounds, host failure/rejoin
// fallout and the monitor→re-plan round trip (§IV-B/§IV-C).

#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/audit.h"
#include "service/event_loop.h"
#include "service/plan_cache.h"
#include "service/replan_policy.h"
#include "sim/cluster_sim.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

// ---- Event queue / virtual clock. ----

TEST(EventQueueTest, PopsInTimestampThenInsertionOrder) {
  EventQueue queue;
  queue.Push(Event::Tick(30));
  queue.Push(Event::Arrival(10, 1));
  queue.Push(Event::Departure(10, 2));  // same time as the arrival
  queue.Push(Event::Tick(20));

  EXPECT_EQ(queue.NextTime(), 10);
  Event first = queue.Pop();
  EXPECT_EQ(first.kind, EventKind::kQueryArrival);  // inserted before
  Event second = queue.Pop();
  EXPECT_EQ(second.kind, EventKind::kQueryDeparture);
  EXPECT_EQ(queue.Pop().time_ms, 20);
  EXPECT_EQ(queue.Pop().time_ms, 30);
  EXPECT_TRUE(queue.empty());
}

TEST(VirtualClockTest, NeverMovesBackwards) {
  VirtualClock clock;
  clock.AdvanceTo(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.now_ms(), 100);
}

// ---- Re-planning scheduler. ----

TEST(ReplanSchedulerTest, DeduplicatesAndBoundsRounds) {
  ReplanPolicyOptions options;
  options.max_queries_per_round = 2;
  ReplanScheduler scheduler(options);
  EXPECT_TRUE(scheduler.Enqueue(7));
  EXPECT_FALSE(scheduler.Enqueue(7));  // already pending
  EXPECT_TRUE(scheduler.Enqueue(8));
  EXPECT_TRUE(scheduler.Enqueue(9));
  EXPECT_EQ(scheduler.pending(), 3u);

  const std::vector<StreamId> round1 = scheduler.NextRound();
  ASSERT_EQ(round1.size(), 2u);  // bounded
  EXPECT_EQ(round1[0], 7);       // FIFO
  EXPECT_EQ(round1[1], 8);
  // Popped queries can be enqueued again.
  EXPECT_TRUE(scheduler.Enqueue(7));
  scheduler.Discard(7);
  const std::vector<StreamId> round2 = scheduler.NextRound();
  ASSERT_EQ(round2.size(), 1u);
  EXPECT_EQ(round2[0], 9);
  EXPECT_FALSE(scheduler.HasPending());
}

// Round composition is pinned at enqueue time: a discard shrinks its
// round without pulling queries forward from later rounds, so every
// later round keeps its composition — and its commit point.
TEST(ReplanSchedulerTest, DiscardAndRequeuePreserveRoundBoundaries) {
  ReplanPolicyOptions options;
  options.max_queries_per_round = 2;
  ReplanScheduler scheduler(options);
  for (StreamId q : {1, 2, 3, 4, 5}) EXPECT_TRUE(scheduler.Enqueue(q));
  // Groups cut at enqueue: [1,2] [3,4] [5].

  scheduler.Discard(2);
  const std::vector<StreamId> first = scheduler.NextRound();
  ASSERT_EQ(first.size(), 1u) << "discard must not re-pack 3 forward";
  EXPECT_EQ(first[0], 1);

  const std::vector<StreamId> second = scheduler.NextRound();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], 3);
  EXPECT_EQ(second[1], 4);
  // A group emptied by discards disappears instead of merging with its
  // neighbours.
  EXPECT_TRUE(scheduler.Enqueue(6));
  scheduler.Discard(5);
  const std::vector<StreamId> third = scheduler.NextRound();
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0], 6);
  EXPECT_FALSE(scheduler.HasPending());
}

// ---- Plan cache. ----

/// Brute-force reference for the reuse lookup: an index of every
/// materialised composite stream, built from a scan of the deployment's
/// grounded pairs and grouped by leaf signature, plus the served
/// streams. Within a signature the smallest materialised id answers.
struct ReuseReference {
  explicit ReuseReference(const Deployment& dep) : catalog(&dep.catalog()) {
    for (HostId h = 0; h < dep.cluster().num_hosts(); ++h) {
      for (StreamId s : dep.GroundedOn(h)) {
        const StreamInfo& info = catalog->stream(s);
        if (info.is_base) continue;
        by_stream[s].push_back(h);  // ascending: h ascends
        by_signature[info.leaves].insert(s);
      }
    }
    for (StreamId s : dep.ServedStreams()) served[s] = dep.ServingHost(s);
  }

  /// What PlanCache::OnArrival must report for `query`: partial hits in
  /// order of decreasing subset size, then ascending subset mask.
  PlanCache::Lookup Expected(StreamId query) const {
    PlanCache::Lookup out;
    auto served_it = served.find(query);
    auto mat_it = by_stream.find(query);
    if (served_it != served.end()) {
      out.exact = out.served = true;
    } else if (mat_it != by_stream.end()) {
      out.exact = true;
    }
    const StreamInfo& info = catalog->stream(query);
    if (info.is_base) return out;
    const int k = static_cast<int>(info.leaves.size());
    for (int size = k - 1; size >= 2; --size) {
      for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
        if (__builtin_popcount(mask) != size) continue;
        std::vector<StreamId> sig;
        for (int i = 0; i < k; ++i) {
          if (mask & (1u << i)) sig.push_back(info.leaves[i]);
        }
        auto it = by_signature.find(sig);
        if (it == by_signature.end()) continue;
        const StreamId smallest = *it->second.begin();
        out.partial.push_back({smallest, by_stream.at(smallest)});
      }
    }
    return out;
  }

  const Catalog* catalog;
  std::map<StreamId, std::vector<HostId>> by_stream;
  std::map<std::vector<StreamId>, std::set<StreamId>> by_signature;
  std::map<StreamId, HostId> served;
};

std::string Render(const PlanCache::Hit& hit) {
  std::string out = std::to_string(hit.stream) + "@";
  for (HostId h : hit.hosts) out += " " + std::to_string(h);
  return out;
}

std::string Render(const PlanCache::Lookup& lookup) {
  std::string out = lookup.served  ? "served"
                    : lookup.exact ? "exact"
                                   : "-";
  for (const PlanCache::Hit& hit : lookup.partial) out += " | " + Render(hit);
  return out;
}

/// For every catalog stream: `cache.FindMaterialized` and the OnArrival
/// of a fresh probe over `dep` (hit/miss counters included) equal the
/// brute-force reference.
::testing::AssertionResult LookupsMatchReference(const Deployment& dep,
                                                 const PlanCache& cache) {
  const ReuseReference ref(dep);
  PlanCache probe(&dep);
  int64_t exact = 0, partial = 0, misses = 0;
  for (StreamId s = 0; s < dep.catalog().num_streams(); ++s) {
    PlanCache::Hit hit;
    const std::string found =
        cache.FindMaterialized(s, &hit) ? Render(hit) : "none";
    auto it = ref.by_stream.find(s);
    const std::string want_found =
        it == ref.by_stream.end() ? "none" : Render({s, it->second});
    if (found != want_found) {
      return ::testing::AssertionFailure()
             << "FindMaterialized(" << s << ") = " << found << ", want "
             << want_found;
    }
    const PlanCache::Lookup want = ref.Expected(s);
    const std::string got = Render(probe.OnArrival(s));
    if (got != Render(want)) {
      return ::testing::AssertionFailure() << "OnArrival(" << s << ") = "
                                           << got << ", want " << Render(want);
    }
    if (want.exact) {
      ++exact;
    } else if (!want.partial.empty()) {
      ++partial;
    } else {
      ++misses;
    }
  }
  if (probe.exact_hits() != exact || probe.partial_hits() != partial ||
      probe.misses() != misses) {
    return ::testing::AssertionFailure() << "hit/miss counters diverged";
  }
  return ::testing::AssertionSuccess();
}

TEST(PlanCacheTest, IndexesMaterializedStreamsBySignature) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(1, 10.0, "c");
  const OperatorId join_ab = *catalog.JoinOperator(a, b);
  const StreamId ab = catalog.op(join_ab).output;
  const StreamId abc = *catalog.CanonicalJoinStream({a, b, c});

  Deployment dep(&cluster, &catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, join_ab).ok());

  PlanCache cache(&dep);

  PlanCache::Hit hit;
  ASSERT_TRUE(cache.FindMaterialized(ab, &hit));
  ASSERT_EQ(hit.hosts.size(), 1u);
  EXPECT_EQ(hit.hosts[0], 0);
  // Base streams are never exact hits.
  EXPECT_FALSE(cache.FindMaterialized(a, nullptr));

  // Exact hit for ab itself.
  PlanCache::Lookup exact = cache.OnArrival(ab);
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(exact.served);

  // abc gets ab as a canonical proper-subquery candidate.
  PlanCache::Lookup partial = cache.OnArrival(abc);
  EXPECT_FALSE(partial.exact);
  ASSERT_EQ(partial.partial.size(), 1u);
  EXPECT_EQ(partial.partial[0].stream, ab);

  EXPECT_EQ(cache.exact_hits(), 1);
  EXPECT_EQ(cache.partial_hits(), 1);

  // A flow materialises the stream at the receiving host too, and the
  // lookup sees it at once: there is no index to refresh.
  ASSERT_TRUE(dep.AddFlow(0, 1, ab).ok());
  ASSERT_TRUE(cache.FindMaterialized(ab, &hit));
  EXPECT_EQ(hit.hosts.size(), 2u);
  EXPECT_TRUE(LookupsMatchReference(dep, cache));
}

// Removal fixtures: a and b injected at host 0, c at host 1, over three
// hosts. Each test builds a deployment, removes something, and requires
// the lookup to follow the deployment's groundedness.
struct CacheRemovalFixture {
  CacheRemovalFixture()
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

TEST(PlanCacheTest, RemovalUngroundsAChainAcrossAFlow) {
  CacheRemovalFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.ab).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, f.join_ab_c).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.abc).ok());
  PlanCache cache(&dep);
  ASSERT_TRUE(cache.FindMaterialized(f.abc, nullptr));
  EXPECT_TRUE(LookupsMatchReference(dep, cache));

  // Removing the producer at the root un-grounds ab at hosts 0 and 1
  // and, through the downstream join and flow, abc at hosts 1 and 2.
  DeploymentDelta remove;
  remove.ops_removed.emplace_back(0, f.join_ab);
  ASSERT_TRUE(dep.Apply(remove).ok());
  EXPECT_TRUE(LookupsMatchReference(dep, cache));
  EXPECT_FALSE(cache.FindMaterialized(f.ab, nullptr));
  EXPECT_FALSE(cache.FindMaterialized(f.abc, nullptr));
  EXPECT_TRUE(cache.OnArrival(f.abc).partial.empty());
}

TEST(PlanCacheTest, RemovalKeepsStreamsWithAnotherSupport) {
  CacheRemovalFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // ab produced at hosts 0 and 1; host 2 receives it from both.
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.a).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.b).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 2, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.ab).ok());
  PlanCache cache(&dep);
  EXPECT_TRUE(LookupsMatchReference(dep, cache));

  // Host 0 loses its producer and its flow: ab un-grounds there only;
  // host 2 keeps it through the flow from host 1.
  DeploymentDelta remove;
  remove.flows_removed.emplace_back(0, 2, f.ab);
  remove.ops_removed.emplace_back(0, f.join_ab);
  ASSERT_TRUE(dep.Apply(remove).ok());
  EXPECT_TRUE(LookupsMatchReference(dep, cache));
  PlanCache::Hit hit;
  ASSERT_TRUE(cache.FindMaterialized(f.ab, &hit));
  EXPECT_EQ(hit.hosts, (std::vector<HostId>{1, 2}));
}

TEST(PlanCacheTest, RemovalUngroundsAFlowCycleThatLostItsRoot) {
  CacheRemovalFixture f;
  Deployment dep(&f.cluster, &f.catalog);
  // ab produced at host 0 and fed into a cycle between hosts 1 and 2:
  // once the root flow goes, each cycle host still has one incoming
  // arc, from the other. A support count would keep both grounded.
  ASSERT_TRUE(dep.PlaceOperator(0, f.join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(1, 2, f.ab).ok());
  ASSERT_TRUE(dep.AddFlow(2, 1, f.ab).ok());
  PlanCache cache(&dep);
  PlanCache::Hit hit;
  ASSERT_TRUE(cache.FindMaterialized(f.ab, &hit));
  ASSERT_EQ(hit.hosts, (std::vector<HostId>{0, 1, 2}));

  DeploymentDelta remove;
  remove.flows_removed.emplace_back(0, 1, f.ab);
  ASSERT_TRUE(dep.Apply(remove).ok());
  EXPECT_TRUE(LookupsMatchReference(dep, cache));
  ASSERT_TRUE(cache.FindMaterialized(f.ab, &hit));
  EXPECT_EQ(hit.hosts, (std::vector<HostId>{0}));
}

// ---- Service scaffolding shared by the scenario tests. ----

struct ServiceFixture {
  ServiceFixture(int hosts, double cpu, int bases,
                 ServiceOptions options = {})
      : cluster(hosts, HostSpec{cpu, 500.0, 500.0, ""}, 1000.0),
        catalog(CostModel{}) {
    for (int i = 0; i < bases; ++i) {
      base.push_back(catalog.AddBaseStream(i % hosts, 10.0));
    }
    // Keep unit solves snappy — but only when the test did not
    // configure the solver itself: the determinism tests pass a huge
    // deadline with a node bound, and clobbering it here would make
    // them wall-clock-bounded (flaky across machine load, e.g. under
    // the sanitizers).
    if (options.planner.timeout_ms == SqprPlanner::Options{}.timeout_ms) {
      options.planner.timeout_ms = 200;
    }
    service = std::make_unique<PlanningService>(&cluster, &catalog, options);
  }

  StreamId Join(std::initializer_list<int> leaves) {
    std::vector<StreamId> ids;
    for (int i : leaves) ids.push_back(base[i]);
    return *catalog.CanonicalJoinStream(std::move(ids));
  }

  EventOutcome StepOne(Event event) {
    EXPECT_TRUE(service->Enqueue(event).ok());
    Result<EventOutcome> outcome = service->Step();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? *outcome : EventOutcome{};
  }

  Cluster cluster;
  Catalog catalog;
  std::vector<StreamId> base;
  std::unique_ptr<PlanningService> service;
};

TEST(PlanningServiceTest, ArrivalDepartureLifecycle) {
  ServiceFixture fx(2, 2.0, 4);
  const StreamId q = fx.Join({0, 1});

  EventOutcome arrival = fx.StepOne(Event::Arrival(10, q));
  EXPECT_TRUE(arrival.admitted);
  EXPECT_FALSE(arrival.already_served);
  ASSERT_EQ(fx.service->admitted_queries().size(), 1u);

  // Repeat arrival dedups via the cache/planner (free admission).
  EventOutcome repeat = fx.StepOne(Event::Arrival(20, q));
  EXPECT_TRUE(repeat.admitted);
  EXPECT_TRUE(repeat.already_served);
  EXPECT_EQ(fx.service->stats().dedup_hits, 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);

  fx.StepOne(Event::Departure(30, q));
  EXPECT_TRUE(fx.service->admitted_queries().empty());
  EXPECT_EQ(fx.service->deployment().num_placed_operators(), 0);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  EXPECT_EQ(fx.service->clock().now_ms(), 30);
}

// Algorithm 1 has two outcomes for an arrival: a dedup hit, or one
// reduced MILP solve. A stream the committed plan materialises but does
// not serve is no exception: the solve finds it through the
// availability constraint (III.5a) and commits, audited as admit.solve.
TEST(PlanningServiceTest, MaterializedIntermediateIsAdmittedBySolve) {
  ServiceOptions options;
  // Deterministic solver: node-bounded, not wall-clock-bounded.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 150;
  obs::AuditJournal journal;
  options.audit = &journal;
  ServiceFixture fx(2, 4.0, 3, options);
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, fx.Join({0, 1, 2}))).admitted);

  // The committed 3-way plan materialises one 2-way intermediate.
  StreamId mat = kInvalidStream;
  for (StreamId s : {fx.Join({0, 1}), fx.Join({1, 2}), fx.Join({0, 2})}) {
    if (fx.service->plan_cache().FindMaterialized(s, nullptr)) mat = s;
  }
  ASSERT_NE(mat, kInvalidStream);
  ASSERT_EQ(fx.service->deployment().ServingHost(mat), kInvalidHost);

  const ServiceStats before = fx.service->stats();
  const int64_t exact_before = fx.service->plan_cache().exact_hits();
  const EventOutcome arrival = fx.StepOne(Event::Arrival(2, mat));
  const ServiceStats& after = fx.service->stats();
  EXPECT_TRUE(arrival.admitted);
  EXPECT_FALSE(arrival.already_served);
  EXPECT_NE(fx.service->deployment().ServingHost(mat), kInvalidHost);
  // The lookup still counts the materialised stream as an exact hit.
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), exact_before + 1);

  // One solve admitted it, and the solver did the work.
  EXPECT_EQ(after.solve_ms.count(), before.solve_ms.count() + 1);
  EXPECT_EQ(after.commit_ms.count(), before.commit_ms.count() + 1);
  EXPECT_GT(after.solver_nodes, before.solver_nodes);
  EXPECT_GT(after.lp_factorizations, before.lp_factorizations);
  EXPECT_EQ(after.model_patches + after.model_rebuilds,
            before.model_patches + before.model_rebuilds + 1);
  EXPECT_EQ(after.cache_fast_path, 0);

  std::vector<std::string> kinds;
  for (const obs::AuditRecord& r : journal.records()) {
    if (r.query == mat) kinds.push_back(r.kind);
  }
  EXPECT_EQ(kinds, std::vector<std::string>{"admit.solve"});
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, RejectsEventsBeforeTheVirtualClock) {
  ServiceFixture fx(2, 2.0, 2);
  fx.StepOne(Event::Tick(100));
  EXPECT_FALSE(fx.service->Enqueue(Event::Tick(50)).ok());
  EXPECT_TRUE(fx.service->Enqueue(Event::Tick(100)).ok());
}

// Satellite: the §IV-B monitor→re-plan round trip, driven by a
// SimReport-shaped measurement with a synthetic rate drift.
TEST(PlanningServiceTest, MonitorReportDriftTriggersReplanAndRevalidates) {
  ServiceFixture fx(2, 2.0, 4);
  const StreamId q01 = fx.Join({0, 1});
  const StreamId q23 = fx.Join({2, 3});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q01)).admitted);
  ASSERT_TRUE(fx.StepOne(Event::Arrival(2, q23)).admitted);

  // Synthetic measurement: base[0] runs at half its estimate (a 50%
  // drift, beyond the 20% threshold); everything else on estimate.
  SimReport report;
  report.measured_rate_mbps[fx.base[0]] = 5.0;
  report.measured_rate_mbps[q01] = 2.5;  // composite: ignored by monitor
  report.cpu_utilization = {0.4, 0.4};

  const Event event = fx.service->MonitorReportFromSim(10, report);
  ASSERT_EQ(event.measured_base_rates.size(), 1u);  // composites filtered

  EventOutcome outcome = fx.StepOne(event);
  // q01 was removed (evicted) and entered the speculative re-planning
  // round the event dispatched; retiring the round re-admits it. q23
  // was untouched.
  EXPECT_EQ(outcome.evicted, 1);
  fx.service->FinishInFlightRound();
  EXPECT_GE(fx.service->stats().replanned_admitted, 1);
  EXPECT_DOUBLE_EQ(fx.catalog.stream(fx.base[0]).rate_mbps, 5.0);
  const auto& admitted = fx.service->admitted_queries();
  EXPECT_NE(std::find(admitted.begin(), admitted.end(), q01),
            admitted.end());
  EXPECT_NE(std::find(admitted.begin(), admitted.end(), q23),
            admitted.end());
  // The re-admission went through the planner's commit audit (Validate);
  // the final committed state must audit clean under the new rates.
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, RateGrowthEvictsUntilFeasible) {
  // Near-saturated cluster; a popular base stream triples. The service
  // must end every event with a valid deployment, shedding queries that
  // no longer fit.
  ServiceFixture fx(2, 0.3, 6);
  int64_t t = 1;
  int admitted_before = 0;
  for (int i = 0; i + 1 < 6; ++i) {
    admitted_before += fx.StepOne(Event::Arrival(t++, fx.Join({i, i + 1})))
                           .admitted;
  }
  ASSERT_GT(admitted_before, 0);

  EventOutcome outcome = fx.StepOne(
      Event::MonitorReport(t, {{fx.base[1], 30.0}}));
  EXPECT_GE(outcome.evicted, 1);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  EXPECT_LE(static_cast<int>(fx.service->admitted_queries().size()),
            admitted_before);
}

TEST(PlanningServiceTest, HostFailureEvictsAndRejoinRestores) {
  ServiceFixture fx(3, 1.0, 6);
  int64_t t = 1;
  std::vector<StreamId> queries;
  for (int i = 0; i + 1 < 6; i += 2) queries.push_back(fx.Join({i, i + 1}));
  int admitted = 0;
  for (StreamId q : queries) {
    admitted += fx.StepOne(Event::Arrival(t++, q)).admitted;
  }
  ASSERT_GT(admitted, 0);

  const HostId failed = 1;
  EventOutcome failure = fx.StepOne(Event::HostFailure(t++, failed));
  EXPECT_FALSE(fx.service->HostActive(failed));
  EXPECT_EQ(fx.cluster.host(failed).cpu, 0.0);
  // Nothing may remain allocated on the dead host, and the survivors
  // must still validate.
  EXPECT_TRUE(fx.service->deployment().OperatorsOn(failed).empty());
  EXPECT_NEAR(fx.service->deployment().NicOutUsed(failed), 0.0, 1e-9);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  // Fallout was queued and (bounded-round) re-admission attempted.
  EXPECT_GE(failure.evicted + failure.replanned_admitted +
                failure.replanned_rejected,
            0);

  EventOutcome join = fx.StepOne(Event::HostJoin(t++, failed));
  (void)join;
  EXPECT_TRUE(fx.service->HostActive(failed));
  EXPECT_GT(fx.cluster.host(failed).cpu, 0.0);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

// A base stream enters the cluster only at its source host, so while
// that host is down no query reading the stream can be served. The
// failure evicts every such query; the re-planning round's re-admissions
// are rejected by the exact admission screen (no solver nodes, nothing
// committed), and after the host rejoins the retried queries are
// admitted through the MILP.
TEST(PlanningServiceTest, ReadmissionsReadingAFailedSourceAreScreened) {
  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  ServiceFixture fx(3, 1.0, 6, options);
  const HostId failed = 1;  // the source of bases 1 and 4
  const std::vector<StreamId> queries = {fx.Join({0, 1}), fx.Join({1, 2}),
                                         fx.Join({3, 4}), fx.Join({4, 5})};
  int64_t t = 1;
  for (StreamId q : queries) {
    ASSERT_TRUE(fx.StepOne(Event::Arrival(t++, q)).admitted);
  }

  const ServiceStats before = fx.service->stats();
  const EventOutcome failure = fx.StepOne(Event::HostFailure(t++, failed));
  EXPECT_EQ(failure.evicted, static_cast<int>(queries.size()));
  EXPECT_TRUE(fx.service->admitted_queries().empty());
  const std::string after_failure = fx.service->deployment().Fingerprint();
  fx.service->FinishInFlightRound();
  const ServiceStats screened = fx.service->stats();
  EXPECT_EQ(screened.replanned_rejected - before.replanned_rejected,
            static_cast<int64_t>(queries.size()));
  EXPECT_EQ(screened.screened_rejections - before.screened_rejections,
            static_cast<int64_t>(queries.size()));
  EXPECT_EQ(screened.solver_nodes, before.solver_nodes);
  EXPECT_EQ(screened.rejected_solver_nodes, before.rejected_solver_nodes);
  EXPECT_EQ(fx.service->deployment().Fingerprint(), after_failure);
  EXPECT_TRUE(fx.service->admitted_queries().empty());

  fx.StepOne(Event::HostJoin(t++, failed));
  fx.service->FinishInFlightRound();
  const ServiceStats& rejoined = fx.service->stats();
  EXPECT_EQ(rejoined.replanned_admitted - screened.replanned_admitted,
            static_cast<int64_t>(queries.size()));
  EXPECT_EQ(rejoined.screened_rejections, screened.screened_rejections);
  EXPECT_GT(rejoined.solver_nodes, screened.solver_nodes);
  std::vector<StreamId> admitted = fx.service->admitted_queries();
  std::sort(admitted.begin(), admitted.end());
  std::vector<StreamId> expected = queries;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(admitted, expected);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

// Plan-cache counter semantics at the service level — miss on first
// sight, exact hit for a materialised subquery (admitted by a solve),
// partial hit for a superquery reusing it, dedup exact hit for a
// served stream — plus invalidation: once failures purge the hosts,
// nothing is found materialised.
TEST(PlanningServiceTest, PlanCacheCountersAndEvictHostInvalidation) {
  ServiceFixture fx(2, 4.0, 4);
  const StreamId abc = fx.Join({0, 1, 2});
  int64_t t = 1;

  // First sight of the canonical stream: a miss, then a full solve.
  ASSERT_TRUE(fx.StepOne(Event::Arrival(t++, abc)).admitted);
  EXPECT_EQ(fx.service->plan_cache().misses(), 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 0);
  EXPECT_EQ(fx.service->plan_cache().partial_hits(), 0);

  // The committed 3-way plan materialises exactly one 2-way
  // intermediate; its arrival is an exact (materialised-but-unserved)
  // hit.
  const std::vector<StreamId> subs = {fx.Join({0, 1}), fx.Join({1, 2}),
                                      fx.Join({0, 2})};
  StreamId mat = kInvalidStream;
  for (StreamId s : subs) {
    if (fx.service->plan_cache().FindMaterialized(s, nullptr)) mat = s;
  }
  ASSERT_NE(mat, kInvalidStream);
  EventOutcome sub_arrival = fx.StepOne(Event::Arrival(t++, mat));
  EXPECT_TRUE(sub_arrival.admitted);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);

  // A 4-way superquery is not materialised itself but sees the
  // materialised proper subqueries as reuse candidates: a partial
  // (subquery) hit, distinct from the exact-hit counter.
  EventOutcome super_arrival = fx.StepOne(Event::Arrival(t++, fx.Join({0, 1, 2, 3})));
  EXPECT_GE(super_arrival.reuse_candidates, 1);
  EXPECT_EQ(fx.service->plan_cache().partial_hits(), 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);
  EXPECT_EQ(fx.service->plan_cache().misses(), 1);

  // A repeat arrival of a served stream is an exact hit too (dedup).
  EventOutcome dedup = fx.StepOne(Event::Arrival(t++, abc));
  EXPECT_TRUE(dedup.already_served);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 2);

  // Failures purge both hosts (PurgeHost under each handler): the
  // lookup must find nothing materialised any more, and a fresh arrival
  // of the former hit is a plain miss.
  fx.StepOne(Event::HostFailure(t++, 0));
  fx.StepOne(Event::HostFailure(t++, 1));
  fx.service->FinishInFlightRound();
  for (StreamId s = 0; s < fx.catalog.num_streams(); ++s) {
    EXPECT_FALSE(fx.service->plan_cache().FindMaterialized(s, nullptr)) << s;
  }
  const int64_t misses_before = fx.service->plan_cache().misses();
  EventOutcome after = fx.StepOne(Event::Arrival(t++, mat));
  EXPECT_FALSE(after.admitted);
  EXPECT_EQ(fx.service->plan_cache().misses(), misses_before + 1);
}

// A cache-miss arrival consumed while a round is pending goes first:
// the round popped at the end of the drift event commits at the end of
// the arrival's event, after the arrival's own solve, and its queries
// are then solved against a state that includes the arrival.
TEST(PlanningServiceTest, CacheMissArrivalOverlapsInFlightRound) {
  ServiceOptions options;
  // Deterministic solver: node-bounded, not wall-clock-bounded.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 150;
  obs::AuditJournal journal;
  options.audit = &journal;
  ServiceFixture fx(2, 0.3, 6, options);

  int64_t t = 1;
  for (int i = 0; i + 1 < 6; ++i) {
    fx.StepOne(Event::Arrival(t++, fx.Join({i, i + 1})));
  }
  // A tripled base rate makes the near-saturated cluster shed load:
  // evictions queue and a round is popped at the end of the event.
  EventOutcome drift =
      fx.StepOne(Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
  EXPECT_GE(drift.evicted, 1);
  EXPECT_EQ(drift.replanned_admitted + drift.replanned_rejected, 0)
      << "a round popped at the end of an event must not commit there";
  const int pending = fx.service->pending_replans();
  EXPECT_GT(pending, 0);

  const StreamId arrival = fx.Join({0, 2});
  const size_t records_before = journal.records().size();
  EventOutcome next = fx.StepOne(Event::Arrival(t++, arrival));
  EXPECT_GT(next.replanned_admitted + next.replanned_rejected, 0)
      << "the pending round commits at the end of the next event";

  // Journal order: the arrival's decision, then the round.
  int arrival_at = -1;
  int round_at = -1;
  for (size_t i = records_before; i < journal.records().size(); ++i) {
    const obs::AuditRecord& r = journal.records()[i];
    if (r.query == arrival && arrival_at < 0 &&
        (r.kind == "admit.solve" || r.kind == "reject.capacity")) {
      arrival_at = static_cast<int>(i);
    }
    if (r.kind == "replan.round" && round_at < 0) {
      round_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(arrival_at, 0) << "the arrival must miss the cache and solve";
  ASSERT_GE(round_at, 0);
  EXPECT_LT(arrival_at, round_at);

  fx.service->FinishInFlightRound();
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  EXPECT_EQ(fx.service->stats().commit_conflicts, 0);
}

// A host failure (eviction and purge) arriving while a re-planning round is
// pending. The service must commit the round before the host's budgets
// are zeroed, skip the round queries that departed since the pop, and
// keep the committed deployment valid throughout — with the same final
// state on every replay.
TEST(PlanningServiceTest, EvictHostWhileRoundInFlightStaysConsistent) {
  auto run = []() {
    ServiceOptions options;
    // Deterministic solver: node-bounded, not wall-clock-bounded.
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    ServiceFixture fx(2, 0.3, 6, options);

    int64_t t = 1;
    std::vector<StreamId> queries;
    for (int i = 0; i + 1 < 6; ++i) queries.push_back(fx.Join({i, i + 1}));
    int admitted = 0;
    for (StreamId q : queries) {
      admitted += fx.StepOne(Event::Arrival(t++, q)).admitted;
    }
    EXPECT_GT(admitted, 0);

    // A tripled base rate makes the near-saturated cluster shed load:
    // evictions queue and a round is popped.
    EventOutcome drift = fx.StepOne(
        Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
    EXPECT_GE(drift.evicted, 1);
    EXPECT_GT(fx.service->pending_replans(), 0);

    // While the round is pending: a departure (skipped at the commit
    // if the round carries it)...
    const StreamId departed = queries[0];
    fx.StepOne(Event::Departure(t++, departed));

    // ...and then a host fails. The failure must commit the round
    // before zeroing budgets and evicting fallout.
    fx.StepOne(Event::HostFailure(t++, 1));
    EXPECT_FALSE(fx.service->HostActive(1));
    EXPECT_TRUE(fx.service->deployment().OperatorsOn(1).empty());
    EXPECT_NEAR(fx.service->deployment().NicOutUsed(1), 0.0, 1e-9);
    EXPECT_TRUE(fx.service->deployment().Validate().ok());

    fx.StepOne(Event::HostJoin(t++, 1));
    fx.StepOne(Event::Tick(t++));
    fx.service->FinishInFlightRound();

    EXPECT_TRUE(fx.service->deployment().Validate().ok());
    const auto& admitted_now = fx.service->admitted_queries();
    EXPECT_EQ(std::find(admitted_now.begin(), admitted_now.end(), departed),
              admitted_now.end())
        << "departed query must not be re-admitted by a pending round";
    return fx.service->deployment().Fingerprint();
  };

  const std::string first = run();
  const std::string again = run();
  EXPECT_EQ(first, again);
}

// Replaying one churn trace twice commits bit-for-bit identical
// deployments and admission statistics.
TEST(PlanningServiceTest, RepeatedReplayCommitsIdenticalDeployments) {
  auto run = []() {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = 17;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 60;
    tc.seed = 17;
    tc.min_failures = 2;
    tc.min_drift_reports = 3;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());
    EXPECT_TRUE(service.deployment().Validate().ok());
    const ServiceStats& stats = service.stats();
    return std::make_tuple(service.deployment().Fingerprint(),
                           stats.admitted, stats.rejected, stats.evictions,
                           stats.replanned_admitted, stats.replanned_rejected,
                           stats.commit_conflicts);
  };
  const auto first = run();
  const auto again = run();
  EXPECT_EQ(first, again);
  EXPECT_GT(std::get<3>(first), 0) << "trace must exercise re-planning";
}

// The round path on a drift-heavy trace with host failures, rejoins
// and a departure injected between a round's pop and its commit:
//  * no commit conflicts and no round unwinds;
//  * every solve is a cache-miss arrival or a live round query, each
//    solved exactly once;
//  * the departed query is skipped at the commit (a replan.discard, no
//    replan decision, not re-admitted);
//  * solver effort is published, and two audited replays write equal
//    canonical audit bytes and commit what an unaudited replay commits.
TEST(PlanningServiceTest, RoundPathSolvesEachRoundQueryOnce) {
  struct Run {
    std::string fingerprint;
    std::string canonical_audit;
    ServiceStats stats;
    StreamId departed = kInvalidStream;
    /// Audit records of the departure's Step: the departure itself and
    /// the commit of the round it hit.
    std::vector<obs::AuditRecord> departure_step;
    int64_t published_nodes = 0;
    int64_t published_pivots = 0;
    int64_t published_factorizations = 0;
    int64_t published_dual_solves = 0;
    int64_t published_slack_start_pivots = 0;
    int64_t published_rejected = 0;
    int64_t published_screened = 0;
    int64_t published_rejected_nodes = 0;
    int64_t published_rejected_pivots = 0;
  };
  auto run = [](bool audit) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = 23;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 90;
    tc.seed = 23;
    tc.departure_weight = 0.3;
    tc.failure_weight = 0.08;
    tc.join_weight = 0.15;
    tc.drift_weight = 0.2;
    tc.min_failures = 2;
    tc.min_drift_reports = 4;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    obs::AuditJournal journal;
    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    if (audit) options.audit = &journal;
    PlanningService service(&cluster, &catalog, options);
    // Observes evictions even when auditing is off: the queries an
    // event evicted are the ones it removed from the admitted set.
    Run r;
    for (const Event& e : *trace) {
      const bool idle_before = service.pending_replans() == 0;
      std::vector<StreamId> before = service.admitted_queries();
      EXPECT_TRUE(service.Enqueue(e).ok());
      Result<EventOutcome> outcome = service.Step();
      EXPECT_TRUE(outcome.ok());
      if (!outcome.ok() || r.departed != kInvalidStream || !idle_before ||
          outcome->evicted < 2 || e.kind == EventKind::kQueryDeparture) {
        continue;
      }
      // Nothing was queued before this event, so the round popped at
      // its end holds exactly its evictions (at most 8 of them).
      if (outcome->evicted > ReplanPolicyOptions{}.max_queries_per_round) {
        continue;
      }
      const std::vector<StreamId>& after = service.admitted_queries();
      for (StreamId q : before) {
        if (std::find(after.begin(), after.end(), q) == after.end() &&
            q != e.query) {
          r.departed = q;
          break;
        }
      }
      if (r.departed == kInvalidStream) continue;
      const size_t records_before = journal.records().size();
      EXPECT_TRUE(
          service.Enqueue(Event::Departure(service.clock().now_ms(),
                                           r.departed))
              .ok());
      Result<EventOutcome> departure = service.Step();
      EXPECT_TRUE(departure.ok());
      // The round committed at the end of this step, without it.
      EXPECT_GT(departure->replanned_admitted + departure->replanned_rejected,
                0);
      EXPECT_EQ(service.deployment().ServingHost(r.departed), kInvalidHost);
      r.departure_step.assign(journal.records().begin() + records_before,
                              journal.records().end());
    }
    service.FinishInFlightRound();
    service.FinalizeAudit();
    EXPECT_TRUE(service.deployment().Validate().ok());
    r.fingerprint = service.deployment().Fingerprint();
    r.canonical_audit = journal.ToJsonl(/*canonical=*/true);
    r.stats = service.stats();
    const obs::MetricsSnapshot published = ServiceMetrics(r.stats);
    const auto counter = [&](const char* name) {
      return published.counters.at(name);
    };
    r.published_nodes = counter("service.solver_nodes");
    r.published_pivots = counter("service.lp_iterations");
    r.published_factorizations = counter("service.lp_factorizations");
    r.published_dual_solves = counter("service.lp_dual_solves");
    r.published_slack_start_pivots =
        counter("service.lp_slack_start_iterations");
    r.published_rejected = counter("service.rejected_candidates");
    r.published_screened = counter("service.screened_rejections");
    r.published_rejected_nodes = counter("service.rejected_solver_nodes");
    r.published_rejected_pivots = counter("service.rejected_lp_iterations");
    return r;
  };

  const Run a = run(/*audit=*/true);
  const ServiceStats& st = a.stats;
  ASSERT_NE(a.departed, kInvalidStream)
      << "the trace must evict into an idle scheduler at least once";
  EXPECT_GE(st.host_failures, 2);
  EXPECT_GE(st.host_joins, 1);
  EXPECT_GE(st.monitor_reports, 4);
  EXPECT_GT(st.replan_rounds, 0);
  EXPECT_EQ(st.commit_conflicts, 0);
  EXPECT_EQ(st.round_unwinds, 0);
  EXPECT_EQ(st.snapshot_bytes_copied, 0);
  EXPECT_EQ(st.barrier_ms.count(), 0u);
  EXPECT_EQ(st.catalog_exhausted, 0);

  const int64_t arrival_solves = st.arrivals - st.dedup_hits;
  const int64_t round_queries = st.replanned_admitted + st.replanned_rejected;
  EXPECT_GT(round_queries, 0);
  EXPECT_EQ(static_cast<int64_t>(st.solve_ms.count()),
            arrival_solves + round_queries);
  EXPECT_GT(st.solver_nodes, 0);
  EXPECT_GT(st.lp_iterations, 0);
  EXPECT_EQ(a.published_nodes, st.solver_nodes);
  EXPECT_EQ(a.published_pivots, st.lp_iterations);
  // Every MILP solve loads its LP engine with one factorization, and
  // the slack-start pivots are a part of all pivots.
  EXPECT_GE(st.lp_factorizations, arrival_solves + round_queries);
  EXPECT_GT(st.lp_dual_solves, 0);
  EXPECT_LE(st.lp_slack_start_iterations, st.lp_iterations);
  EXPECT_EQ(a.published_factorizations, st.lp_factorizations);
  EXPECT_EQ(a.published_dual_solves, st.lp_dual_solves);
  EXPECT_EQ(a.published_slack_start_pivots, st.lp_slack_start_iterations);
  EXPECT_EQ(a.published_rejected, st.rejected_candidates);
  // Rejection cost: screened solves are rejections, and rejecting
  // solves carry a part of the effort.
  EXPECT_LE(st.screened_rejections, st.rejected + st.replanned_rejected);
  EXPECT_LE(st.rejected_solver_nodes, st.solver_nodes);
  EXPECT_LE(st.rejected_lp_iterations, st.lp_iterations);
  EXPECT_EQ(a.published_screened, st.screened_rejections);
  EXPECT_EQ(a.published_rejected_nodes, st.rejected_solver_nodes);
  EXPECT_EQ(a.published_rejected_pivots, st.rejected_lp_iterations);

  // The departed query: discarded at the commit, never decided.
  int discards = 0;
  int rounds = 0;
  for (const obs::AuditRecord& r : a.departure_step) {
    if (r.kind == "replan.round") ++rounds;
    if (r.query != a.departed) continue;
    if (r.kind == "replan.discard") ++discards;
    EXPECT_NE(r.kind, "replan.admit");
    EXPECT_NE(r.kind, "replan.reject");
    EXPECT_NE(r.kind, "replan.fail");
  }
  EXPECT_EQ(discards, 1);
  EXPECT_EQ(rounds, 1);

  const Run b = run(/*audit=*/true);
  EXPECT_EQ(a.canonical_audit, b.canonical_audit);
  const Run off = run(/*audit=*/false);
  EXPECT_EQ(a.fingerprint, off.fingerprint);
  EXPECT_EQ(a.departed, off.departed);
  EXPECT_EQ(a.stats.solver_nodes, off.stats.solver_nodes);
  EXPECT_EQ(a.stats.lp_iterations, off.stats.lp_iterations);
  EXPECT_EQ(a.stats.lp_factorizations, off.stats.lp_factorizations);
  EXPECT_EQ(a.stats.lp_dual_solves, off.stats.lp_dual_solves);
  EXPECT_EQ(a.stats.lp_slack_start_iterations,
            off.stats.lp_slack_start_iterations);
  EXPECT_EQ(a.stats.rejected_candidates, off.stats.rejected_candidates);
  EXPECT_EQ(a.stats.screened_rejections, off.stats.screened_rejections);
  EXPECT_EQ(a.stats.rejected_solver_nodes, off.stats.rejected_solver_nodes);
  EXPECT_EQ(a.stats.rejected_lp_iterations,
            off.stats.rejected_lp_iterations);
}

// The stall/SLO watchdog (WatchdogOptions) observes wall clock, so its
// counters are normally machine-dependent — but at the extremes they
// are exact and therefore testable: a vanishing budget makes every
// stage sample (and every Step) a breach, so each breach counter equals
// its histogram's sample count and loop_stalls equals the event count —
// all worker-invariant at a fixed depth, because the sample counts
// themselves are. A huge budget yields zero breaches. And the watchdog
// never gates behaviour: every run commits the budget-free fingerprint.
TEST(PlanningServiceTest, WatchdogBreachCountsAreExactAtExtremeBudgets) {
  struct WatchdogRun {
    std::string fingerprint;
    int64_t events = 0;
    int64_t loop_stalls = 0;
    double worst_stall_ms = 0.0;
    size_t admit_n = 0, solve_n = 0, commit_n = 0, measure_n = 0;
    int64_t admit_b = 0, solve_b = 0, commit_b = 0, measure_b = 0;
  };
  // Closed-loop replay so all four budgeted stage histograms (including
  // measure_ms) take samples; node-bounded solver as always.
  auto run = [](double budget_ms) {
    Cluster cluster(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 18;
    wc.num_queries = 30;
    wc.arities = {2, 3};
    wc.seed = 11;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 36;
    tc.seed = 11 * 977 + 13;
    tc.mean_gap_ms = 40;
    tc.drift_weight = 0.11;
    tc.tick_weight = 0.55;
    tc.min_drift_reports = 2;
    tc.closed_loop = true;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 80;
    options.closed_loop = true;
    options.telemetry.measure_period = 2;
    options.telemetry.seed = 11;
    options.telemetry.sim.rate_scale = 0.02;
    options.telemetry.sim.duration_ms = 400;
    options.watchdog.event_stall_ms = budget_ms;
    options.watchdog.admit_budget_ms = budget_ms;
    options.watchdog.solve_budget_ms = budget_ms;
    options.watchdog.commit_budget_ms = budget_ms;
    options.watchdog.measure_budget_ms = budget_ms;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());

    const ServiceStats& stats = service.stats();
    WatchdogRun r;
    r.fingerprint = service.deployment().Fingerprint();
    r.events = stats.events;
    r.loop_stalls = stats.loop_stalls;
    r.worst_stall_ms = stats.worst_stall_ms;
    r.admit_n = stats.admit_ms.count();
    r.solve_n = stats.solve_ms.count();
    r.commit_n = stats.commit_ms.count();
    r.measure_n = stats.measure_ms.count();
    r.admit_b = stats.admit_budget_breaches;
    r.solve_b = stats.solve_budget_breaches;
    r.commit_b = stats.commit_budget_breaches;
    r.measure_b = stats.measure_budget_breaches;
    return r;
  };

  const WatchdogRun off = run(/*budget_ms=*/0.0);
  EXPECT_GT(off.events, 0);
  EXPECT_GT(off.measure_n, 0u) << "closed loop never measured";
  EXPECT_EQ(off.loop_stalls, 0);
  EXPECT_EQ(off.admit_b + off.solve_b + off.commit_b + off.measure_b, 0)
      << "budgets of 0 mean the watchdog is off";

  // Tiny budget (1 picosecond): every wall-clock sample breaches, so
  // the breach counters collapse onto the deterministic sample counts.
  const WatchdogRun tiny = run(/*budget_ms=*/1e-9);
  EXPECT_EQ(tiny.fingerprint, off.fingerprint)
      << "watchdog budgets changed the committed deployment";
  EXPECT_EQ(tiny.loop_stalls, tiny.events);
  EXPECT_GT(tiny.worst_stall_ms, 0.0);
  EXPECT_EQ(tiny.admit_b, static_cast<int64_t>(tiny.admit_n));
  EXPECT_EQ(tiny.solve_b, static_cast<int64_t>(tiny.solve_n));
  EXPECT_EQ(tiny.commit_b, static_cast<int64_t>(tiny.commit_n));
  EXPECT_EQ(tiny.measure_b, static_cast<int64_t>(tiny.measure_n));

  // Replay-invariant: wall times differ between runs, but with every
  // sample breaching, the counts are the contract's.
  const WatchdogRun tiny_again = run(/*budget_ms=*/1e-9);
  EXPECT_EQ(tiny_again.fingerprint, off.fingerprint);
  EXPECT_EQ(tiny_again.events, tiny.events);
  EXPECT_EQ(tiny_again.loop_stalls, tiny.loop_stalls);
  EXPECT_EQ(tiny_again.admit_b, tiny.admit_b);
  EXPECT_EQ(tiny_again.solve_b, tiny.solve_b);
  EXPECT_EQ(tiny_again.commit_b, tiny.commit_b);
  EXPECT_EQ(tiny_again.measure_b, tiny.measure_b);

  // Huge budget: nothing on this machine takes 10^12 ms, so zero
  // breaches and zero stalls — while the histograms still sample.
  const WatchdogRun huge = run(/*budget_ms=*/1e12);
  EXPECT_EQ(huge.fingerprint, off.fingerprint);
  EXPECT_EQ(huge.loop_stalls, 0);
  EXPECT_DOUBLE_EQ(huge.worst_stall_ms, 0.0);
  EXPECT_EQ(huge.admit_n, tiny.admit_n);
  EXPECT_EQ(huge.admit_b + huge.solve_b + huge.commit_b + huge.measure_b, 0);
}

TEST(PlanningServiceTest, PlanCacheLookupMatchesGroundedScanOnRandomizedTraces) {
  // After every event — commits, GC departures, evictions, drift
  // cycles — every catalog stream's lookup must equal the brute-force
  // reference built from the committed deployment. Queries of arity 2-4
  // over few base streams overlap often enough to arrive for streams
  // materialised but unserved and to find partial hits. A solve budget of 0
  // expires every solve at once, so each admission comes from the
  // greedy fallback's diff instead.
  const std::vector<std::pair<uint64_t, int64_t>> runs = {
      {3, 60000}, {11, 60000}, {29, 60000}, {3, 0}, {11, 0}, {29, 0}};
  int64_t materialized_hits = 0, partial_hits = 0;
  for (const auto& [seed, timeout_ms] : runs) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 8;
    wc.num_queries = 40;
    wc.arities = {2, 3, 4};
    wc.seed = seed;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    ASSERT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 80;
    tc.seed = seed;
    tc.min_failures = 2;
    tc.min_drift_reports = 3;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    ASSERT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = timeout_ms;
    options.planner.max_nodes = 150;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) ASSERT_TRUE(service.Enqueue(e).ok());
    int step = 0;
    while (service.HasPendingEvents()) {
      ASSERT_TRUE(service.Step().ok());
      ASSERT_TRUE(LookupsMatchReference(service.deployment(),
                                        service.plan_cache()))
          << "seed " << seed << " diverged after event " << step;
      ++step;
    }
    service.FinishInFlightRound();
    EXPECT_TRUE(
        LookupsMatchReference(service.deployment(), service.plan_cache()));

    EXPECT_GT(service.stats().departures + service.stats().evictions, 0)
        << "seed " << seed;
    if (timeout_ms == 0) {
      EXPECT_GT(service.stats().heuristic_fallbacks, 0) << "seed " << seed;
    }
    // Exact hits that were not dedups: materialised but unserved.
    materialized_hits +=
        service.plan_cache().exact_hits() - service.stats().dedup_hits;
    partial_hits += service.plan_cache().partial_hits();
  }
  // The traces must reach both kinds of hit, or the comparison above
  // could pass on lookups that never find anything.
  EXPECT_GT(materialized_hits, 0);
  EXPECT_GT(partial_hits, 0);
}

TEST(PlanningServiceTest, ReplayIsDeterministic) {
  auto run = [](uint64_t seed) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = seed;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 40;
    tc.seed = seed;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    // Determinism must not depend on machine load: bound the solver by
    // node count (deterministic) rather than by wall clock.
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());
    EXPECT_TRUE(service.deployment().Validate().ok());
    std::vector<StreamId> admitted = service.admitted_queries();
    std::sort(admitted.begin(), admitted.end());
    return std::make_tuple(admitted, service.stats().admitted,
                           service.stats().rejected,
                           service.stats().evictions);
  };
  EXPECT_EQ(run(5), run(5));
}

// ---- Trace generation / serialisation. ----

TEST(TraceTest, GeneratesRequiredEventMixDeterministically) {
  Catalog catalog(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 50;
  Result<Workload> workload = GenerateWorkload(wc, 4, &catalog);
  ASSERT_TRUE(workload.ok());

  TraceConfig tc;
  tc.num_events = 200;
  tc.seed = 9;
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 4, catalog);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 200u);

  int failures = 0, drifts = 0, arrivals = 0;
  int64_t last_t = 0;
  for (const Event& e : *trace) {
    EXPECT_GT(e.time_ms, last_t);  // strictly increasing virtual time
    last_t = e.time_ms;
    failures += e.kind == EventKind::kHostFailure;
    drifts += e.kind == EventKind::kMonitorReport;
    arrivals += e.kind == EventKind::kQueryArrival;
  }
  EXPECT_GE(failures, tc.min_failures);
  EXPECT_GE(drifts, tc.min_drift_reports);
  EXPECT_GT(arrivals, 0);

  // Same seed, same trace.
  Result<std::vector<Event>> again =
      GenerateTrace(tc, *workload, 4, catalog);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*again)[i].time_ms, (*trace)[i].time_ms);
    EXPECT_EQ((*again)[i].kind, (*trace)[i].kind);
    EXPECT_EQ((*again)[i].query, (*trace)[i].query);
    EXPECT_EQ((*again)[i].host, (*trace)[i].host);
  }
}

// ---- Closed loop (§IV-C): self-measurement drives re-planning. ----

/// Closed-loop options with a cheap measurement sim and no smoothing or
/// noise, measuring on every tick.
ServiceOptions ClosedLoopOptions(int measure_period = 1) {
  ServiceOptions options;
  options.closed_loop = true;
  options.telemetry.measure_period = measure_period;
  options.telemetry.seed = 7;
  options.telemetry.sim.rate_scale = 0.05;
  options.telemetry.sim.duration_ms = 1000;
  return options;
}

TEST(PlanningServiceTest, ClosedLoopMeasuresAndReplansAutomatically) {
  ServiceFixture fx(2, 2.0, 4, ClosedLoopOptions());
  const StreamId q01 = fx.Join({0, 1});
  const StreamId q23 = fx.Join({2, 3});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q01)).admitted);
  ASSERT_TRUE(fx.StepOne(Event::Arrival(2, q23)).admitted);

  // Ground truth: base[0] actually runs at twice its 10 Mbps estimate.
  // No monitor event is ever enqueued — the service must notice by
  // measuring its own deployment on the next tick.
  RateTrajectory twice;
  twice.stream = fx.base[0];
  twice.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, twice));
  EXPECT_EQ(fx.service->stats().rate_directives, 1);

  EventOutcome tick = fx.StepOne(Event::Tick(10));
  EXPECT_TRUE(tick.measured);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 1);
  EXPECT_EQ(fx.service->stats().monitor_reports, 0);
  // The 2x drift exceeds the 20% threshold: q01 (leaf base[0]) was
  // evicted and queued for re-planning — an automatic §IV-B round.
  EXPECT_GE(tick.evicted, 1);
  EXPECT_EQ(fx.service->stats().auto_replan_rounds, 1);
  // The measured rate was installed: the estimate converged to ~20
  // (the realised sim rate; quantisation leaves a few percent).
  EXPECT_NEAR(fx.catalog.stream(fx.base[0]).rate_mbps, 20.0, 2.0);

  fx.service->FinishInFlightRound();
  EXPECT_GE(fx.service->stats().replanned_admitted +
                fx.service->stats().replanned_rejected,
            1);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());

  // Converged: the next measurement sees rates on (the new) estimate
  // and does not re-plan again.
  const int64_t rounds_before = fx.service->stats().auto_replan_rounds;
  fx.StepOne(Event::Tick(20));
  EXPECT_EQ(fx.service->stats().measurement_ticks, 2);
  EXPECT_EQ(fx.service->stats().auto_replan_rounds, rounds_before);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, ClosedLoopHonoursMeasurePeriod) {
  ServiceFixture fx(2, 2.0, 2, ClosedLoopOptions(/*measure_period=*/3));
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, fx.Join({0, 1}))).admitted);
  int64_t t = 10;
  for (int i = 0; i < 6; ++i) fx.StepOne(Event::Tick(t += 10));
  // Ticks 3 and 6 measure; 1, 2, 4, 5 only drain re-planning rounds.
  EXPECT_EQ(fx.service->stats().ticks, 6);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 2);
}

TEST(PlanningServiceTest, ClosedLoopRejectsNonBaseRateDirectives) {
  ServiceFixture fx(2, 2.0, 2, ClosedLoopOptions());
  const StreamId q = fx.Join({0, 1});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q)).admitted);

  // A directive for a composite (or unknown) stream could never be
  // observed — measurements only report base streams — so it must not
  // enter the rate model to silently never fire.
  RateTrajectory composite;
  composite.stream = q;
  composite.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, composite));
  RateTrajectory unknown;
  unknown.stream = 9999;
  unknown.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(6, unknown));

  EXPECT_EQ(fx.service->stats().rate_directives, 2);
  ASSERT_NE(fx.service->telemetry(), nullptr);
  EXPECT_TRUE(fx.service->telemetry()->rate_model().empty());
}

TEST(PlanningServiceTest, OpenLoopCountsButIgnoresRateDirectives) {
  ServiceFixture fx(2, 2.0, 2);  // closed_loop defaults to off
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, fx.Join({0, 1}))).admitted);

  RateTrajectory twice;
  twice.stream = fx.base[0];
  twice.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, twice));
  EventOutcome tick = fx.StepOne(Event::Tick(10));

  // The directive is counted but there is no ground truth to measure:
  // no measurement, no drift, estimates untouched.
  EXPECT_FALSE(tick.measured);
  EXPECT_EQ(fx.service->stats().rate_directives, 1);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 0);
  EXPECT_EQ(fx.service->telemetry(), nullptr);
  EXPECT_DOUBLE_EQ(fx.catalog.stream(fx.base[0]).rate_mbps, 10.0);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  std::vector<Event> events;
  events.push_back(Event::Arrival(10, 3));
  events.push_back(Event::Departure(20, 3));
  events.push_back(Event::HostFailure(30, 1));
  events.push_back(Event::HostJoin(45, 1));
  events.push_back(
      Event::MonitorReport(50, {{0, 12.3456789}, {2, 0.25}}, {0.5, 1.25}));
  events.push_back(Event::Tick(60));

  const std::string path =
      ::testing::TempDir() + "/sqpr_trace_roundtrip.txt";
  ASSERT_TRUE(SaveTrace(events, path).ok());
  Result<std::vector<Event>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*loaded)[i].time_ms, events[i].time_ms);
    EXPECT_EQ((*loaded)[i].kind, events[i].kind);
    EXPECT_EQ((*loaded)[i].query, events[i].query);
    EXPECT_EQ((*loaded)[i].host, events[i].host);
    EXPECT_EQ((*loaded)[i].measured_base_rates,
              events[i].measured_base_rates);
    EXPECT_EQ((*loaded)[i].cpu_utilization, events[i].cpu_utilization);
  }
}

TEST(TraceTest, SaveLoadRoundTripsRateDirectives) {
  std::vector<Event> events;
  RateTrajectory constant;
  constant.kind = RateTrajectory::Kind::kConstant;
  constant.stream = 4;
  constant.base_rate_mbps = 12.3456789;
  events.push_back(Event::RateDirective(10, constant));

  RateTrajectory step;
  step.kind = RateTrajectory::Kind::kStep;
  step.stream = 5;
  step.base_rate_mbps = 10.0;
  step.step_at_ms = 750;
  step.step_factor = 1.75;
  events.push_back(Event::RateDirective(20, step));

  RateTrajectory walk;
  walk.kind = RateTrajectory::Kind::kRandomWalk;
  walk.stream = 6;
  walk.base_rate_mbps = 8.0;
  walk.period_ms = 120;
  walk.volatility = 0.25;
  walk.min_factor = 0.5;
  walk.max_factor = 3.0;
  events.push_back(Event::RateDirective(30, walk));

  RateTrajectory periodic;
  periodic.kind = RateTrajectory::Kind::kPeriodic;
  periodic.stream = 7;
  periodic.base_rate_mbps = 9.5;
  periodic.period_ms = 4000;
  periodic.amplitude = 0.6;
  periodic.phase = 1.25;
  events.push_back(Event::RateDirective(40, periodic));

  const std::string path =
      ::testing::TempDir() + "/sqpr_trace_rate_roundtrip.txt";
  ASSERT_TRUE(SaveTrace(events, path).ok());
  Result<std::vector<Event>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*loaded)[i].time_ms, events[i].time_ms);
    ASSERT_EQ((*loaded)[i].kind, EventKind::kRateDirective);
    const RateTrajectory& want = events[i].trajectory;
    const RateTrajectory& got = (*loaded)[i].trajectory;
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.stream, want.stream);
    EXPECT_EQ(got.base_rate_mbps, want.base_rate_mbps);
    EXPECT_EQ(got.step_at_ms, want.step_at_ms);
    EXPECT_EQ(got.step_factor, want.step_factor);
    EXPECT_EQ(got.period_ms, want.period_ms);
    EXPECT_EQ(got.volatility, want.volatility);
    EXPECT_EQ(got.min_factor, want.min_factor);
    EXPECT_EQ(got.max_factor, want.max_factor);
    EXPECT_EQ(got.amplitude, want.amplitude);
    EXPECT_EQ(got.phase, want.phase);
  }
}

TEST(TraceTest, GeneratesClosedLoopTracesWithoutMonitorReports) {
  Catalog catalog(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 12;
  wc.num_queries = 20;
  Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
  ASSERT_TRUE(workload.ok());

  TraceConfig tc;
  tc.num_events = 120;
  tc.seed = 5;
  tc.closed_loop = true;
  tc.tick_weight = 0.5;
  tc.min_drift_reports = 4;
  Result<std::vector<Event>> trace = GenerateTrace(tc, *workload, 3, catalog);
  ASSERT_TRUE(trace.ok());

  int directives = 0, monitors = 0, ticks = 0;
  for (const Event& e : *trace) {
    directives += e.kind == EventKind::kRateDirective;
    monitors += e.kind == EventKind::kMonitorReport;
    if (e.kind == EventKind::kRateDirective) {
      EXPECT_GT(e.trajectory.base_rate_mbps, 0.0);
      EXPECT_GE(e.trajectory.stream, 0);
    }
    ticks += e.kind == EventKind::kTick;
  }
  EXPECT_EQ(monitors, 0) << "closed-loop traces script causes, never "
                            "measurements";
  EXPECT_GE(directives, tc.min_drift_reports);
  EXPECT_GT(ticks, 0);

  // Deterministic like every other generated trace.
  Result<std::vector<Event>> again = GenerateTrace(tc, *workload, 3, catalog);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*again)[i].kind, (*trace)[i].kind);
    EXPECT_EQ((*again)[i].trajectory.base_rate_mbps,
              (*trace)[i].trajectory.base_rate_mbps);
  }
}

// Satellite: parse diagnostics must name the offending line and quote
// it — closed-loop traces add directive syntax that has to be
// debuggable when hand-edited.
TEST(TraceTest, ParseErrorsReportLineNumberAndSnippet) {
  const std::string path = ::testing::TempDir() + "/sqpr_trace_bad.txt";
  auto write_and_load = [&](const std::string& content) {
    std::ofstream out(path);
    out << content;
    out.close();
    return LoadTrace(path);
  };

  // Line 3 (comments and blank lines count) is garbage.
  Result<std::vector<Event>> r =
      write_and_load("# header\n10 tick\nthis is not an event\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":3:"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("this is not an event"),
            std::string::npos)
      << r.status().ToString();

  // A known kind with a missing payload quotes the line too.
  r = write_and_load("10 arrival\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":1:"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("10 arrival"), std::string::npos);

  // Unknown trajectory shapes name the shape and the line.
  r = write_and_load("10 tick\n20 rate 3 sawtooth 5.0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":2:"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("sawtooth"), std::string::npos);

  // Long lines are excerpted, not dumped wholesale.
  const std::string long_line(300, 'x');
  r = write_and_load(long_line + "\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("..."), std::string::npos);
  EXPECT_LT(r.status().ToString().size(), 200u);
}

// Hostile traces: seeded token mutations of a saved trace (dropped,
// duplicated and swapped tokens; huge, negative, NaN and non-numeric
// substitutes) must each load OK or fail with InvalidArgument naming
// the file and the mutated line — never throw or abort.
TEST(TraceTest, LoadSurvivesSeededTokenMutations) {
  const std::string path = ::testing::TempDir() + "/sqpr_trace_fuzz.txt";
  auto load_text = [&](const std::string& content) {
    std::ofstream out(path);
    out << content;
    out.close();
    return LoadTrace(path);
  };

  // The allocation bomb: an untrusted cpu count must not pre-size.
  Result<std::vector<Event>> bomb =
      load_text("0 monitor 0 cpu 1000000000000000000\n");
  ASSERT_FALSE(bomb.ok());
  EXPECT_TRUE(bomb.status().IsInvalidArgument());
  EXPECT_NE(bomb.status().ToString().find(path + ":1:"), std::string::npos)
      << bomb.status().ToString();

  // A saved trace with every event kind and trajectory shape.
  std::vector<Event> events = {
      Event::Arrival(10, 5),
      Event::Departure(20, 5),
      Event::HostFailure(30, 1),
      Event::HostJoin(40, 1),
      Event::MonitorReport(50, {{2, 12.5}, {3, 7.25}}, {0.5, 0.75, 0.25}),
      Event::Tick(60)};
  RateTrajectory traj;
  traj.stream = 2;
  traj.base_rate_mbps = 10.0;
  traj.kind = RateTrajectory::Kind::kConstant;
  events.push_back(Event::RateDirective(70, traj));
  traj.kind = RateTrajectory::Kind::kStep;
  traj.step_at_ms = 500;
  traj.step_factor = 2.0;
  events.push_back(Event::RateDirective(80, traj));
  traj.kind = RateTrajectory::Kind::kRandomWalk;
  traj.period_ms = 100;
  traj.volatility = 0.2;
  traj.min_factor = 0.5;
  traj.max_factor = 2.0;
  events.push_back(Event::RateDirective(90, traj));
  traj.kind = RateTrajectory::Kind::kPeriodic;
  traj.amplitude = 0.3;
  traj.phase = 0.1;
  events.push_back(Event::RateDirective(100, traj));
  ASSERT_TRUE(SaveTrace(events, path).ok());
  std::vector<std::string> lines;
  std::vector<size_t> event_lines;  // indices of non-comment lines
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') event_lines.push_back(lines.size());
      lines.push_back(line);
    }
  }
  ASSERT_EQ(event_lines.size(), events.size());

  const std::vector<std::string> hostile = {
      "1000000000000000000", "99999999999999999999999", "-1",
      "-9223372036854775809", "nan", "NaN", "inf", "-inf", "1e308",
      "1e999", "abc", "0x10", "cpu", "monitor", "-0", "3.5"};
  Rng rng(20260518);
  int failures = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const size_t target = event_lines[rng.NextBounded(event_lines.size())];
    std::vector<std::string> tokens;
    {
      std::istringstream ss(lines[target]);
      std::string token;
      while (ss >> token) tokens.push_back(token);
    }
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations && !tokens.empty(); ++m) {
      const size_t i = rng.NextBounded(tokens.size());
      switch (rng.NextBounded(4)) {
        case 0:
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                        tokens[i]);
          break;
        case 2:
          std::swap(tokens[i], tokens[rng.NextBounded(tokens.size())]);
          break;
        default:
          tokens[i] = hostile[rng.NextBounded(hostile.size())];
          break;
      }
    }
    std::string mutated;
    for (size_t i = 0; i < tokens.size(); ++i) {
      mutated += (i ? " " : "") + tokens[i];
    }
    std::string content;
    for (size_t l = 0; l < lines.size(); ++l) {
      content += (l == target ? mutated : lines[l]) + "\n";
    }
    try {
      const Result<std::vector<Event>> r = load_text(content);
      if (r.ok()) continue;
      ++failures;
      EXPECT_TRUE(r.status().IsInvalidArgument())
          << "'" << mutated << "': " << r.status().ToString();
      const std::string where = path + ":" + std::to_string(target + 1) + ":";
      EXPECT_NE(r.status().ToString().find(where), std::string::npos)
          << "'" << mutated << "': " << r.status().ToString();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "LoadTrace threw on '" << mutated << "': " << e.what();
    }
  }
  EXPECT_GT(failures, 0) << "the mutations never produced a bad line";
}

}  // namespace
}  // namespace sqpr
