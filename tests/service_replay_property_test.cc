// Property test for the planning service's determinism contract
// (docs/ARCHITECTURE.md §4): replaying any trace with a node-bounded
// solver commits bit-for-bit identical deployments — and identical
// admission/eviction statistics and solver effort — on every replay.
// Twenty generated traces with varied seeds and event mixes
// (arrivals/departures/failures/joins/drift/ticks) stand in for "any
// trace". Per-replay state is rebuilt from scratch (fresh
// catalog/cluster/workload from the same seed): drift reports install
// measured rates into the catalog, so nothing may leak between replays.
//
// The contract extends unchanged to closed-loop mode (§IV-C):
// ground-truth rate trajectories plus periodic self-measurement, zero
// scripted monitor events. The *WorkerCountInvariant* and
// PipelineDepthWorkerMatrixInvariant properties keep the names they had
// when they also swept worker counts and pipeline depths; they now
// replay each trace twice, and check the in-order round path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/audit.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

/// Everything the contract promises is replay-invariant. Wall clock
/// (latency stats) is deliberately excluded.
struct ReplayResult {
  std::string fingerprint;
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t dedup_hits = 0;
  int64_t cache_fast_path = 0;
  int64_t evictions = 0;
  int64_t replan_rounds = 0;
  int64_t replanned_admitted = 0;
  int64_t replanned_rejected = 0;
  int64_t commit_conflicts = 0;
  int64_t round_unwinds = 0;
  int64_t monitor_reports = 0;
  int64_t rate_directives = 0;
  int64_t measurement_ticks = 0;
  int64_t auto_replan_rounds = 0;
  int64_t analytic_ticks = 0;
  int64_t catalog_exhausted = 0;
  /// Solver effort: solves (solve_ms samples), B&B nodes, LP pivots.
  /// Deterministic under the node-bounded solver.
  int64_t solves = 0;
  int64_t solver_nodes = 0;
  int64_t lp_iterations = 0;
  /// Observations of the retired round pipeline that must stay empty.
  int64_t snapshot_bytes = 0;
  int64_t barrier_waits = 0;
  int pending_replans = 0;
  bool valid = false;

  auto Tie() const {
    return std::tie(fingerprint, arrivals, admitted, rejected, dedup_hits,
                    cache_fast_path, evictions, replan_rounds,
                    replanned_admitted, replanned_rejected, commit_conflicts,
                    round_unwinds, monitor_reports, rate_directives,
                    measurement_ticks, auto_replan_rounds, analytic_ticks,
                    catalog_exhausted, solves, solver_nodes, lp_iterations,
                    snapshot_bytes, barrier_waits, pending_replans, valid);
  }
  bool operator==(const ReplayResult& other) const {
    return Tie() == other.Tie();
  }
};

std::ostream& operator<<(std::ostream& os, const ReplayResult& r) {
  return os << "arrivals=" << r.arrivals << " admitted=" << r.admitted
            << " rejected=" << r.rejected << " dedup=" << r.dedup_hits
            << " cache=" << r.cache_fast_path
            << " evictions=" << r.evictions << " rounds=" << r.replan_rounds
            << " replanned=" << r.replanned_admitted << "/"
            << (r.replanned_admitted + r.replanned_rejected)
            << " conflicts=" << r.commit_conflicts
            << " unwinds=" << r.round_unwinds
            << " monitor=" << r.monitor_reports
            << " directives=" << r.rate_directives
            << " measured=" << r.measurement_ticks
            << " auto=" << r.auto_replan_rounds
            << " analytic=" << r.analytic_ticks
            << " exhausted=" << r.catalog_exhausted
            << " solves=" << r.solves << " nodes=" << r.solver_nodes
            << " pivots=" << r.lp_iterations
            << " snapshot-bytes=" << r.snapshot_bytes
            << " barrier-waits=" << r.barrier_waits
            << " pending=" << r.pending_replans << " valid=" << r.valid
            << "\nfingerprint:\n"
            << r.fingerprint;
}

/// Varies the event mix deterministically with the seed so the twenty
/// instances cover different regimes (departure-heavy, churn-heavy,
/// drift-heavy, ...), not twenty samples of one distribution.
TraceConfig MakeTraceConfig(uint64_t seed) {
  TraceConfig tc;
  tc.num_events = 36;
  tc.seed = seed * 977 + 13;
  tc.mean_gap_ms = 40;
  tc.arrival_weight = 1.0;
  tc.departure_weight = 0.15 + 0.10 * static_cast<double>(seed % 4);
  tc.failure_weight = 0.02 + 0.02 * static_cast<double>(seed % 3);
  tc.join_weight = 0.06 + 0.03 * static_cast<double>(seed % 2);
  tc.drift_weight = 0.05 + 0.06 * static_cast<double>(seed % 5);
  tc.tick_weight = 0.10;
  tc.min_failures = 1 + static_cast<int>(seed % 2);
  tc.min_drift_reports = 1 + static_cast<int>(seed % 3);
  tc.drift_streams_per_report = 1 + static_cast<int>(seed % 3);
  return tc;
}

/// Scenario state rebuilt from scratch per replay (drift reports and
/// warm-ups mutate the catalog, so nothing may leak between replays).
/// Owned through pointers because the checkpoint/restore properties
/// need two independent scenarios alive at once ("the crashed process"
/// and "the restarted process").
struct Scenario {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Catalog> catalog;
  std::vector<Event> trace;
};

Scenario MakeScenario(uint64_t seed, bool closed_loop) {
  Scenario s;
  s.cluster =
      std::make_unique<Cluster>(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
  s.catalog = std::make_unique<Catalog>(CostModel{});

  WorkloadConfig wc;
  wc.num_base_streams = 18;
  wc.num_queries = 30;
  wc.arities = {2, 3};
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, s.catalog.get());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  TraceConfig tc = MakeTraceConfig(seed);
  if (closed_loop) {
    // Drift slots become ground-truth trajectories and the tick weight
    // rises — the §IV-C measurements (and therefore every re-planning
    // round) fire from the service's own loop.
    tc.closed_loop = true;
    tc.tick_weight = 0.55;
  }
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 3, *s.catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  s.trace = std::move(*trace);
  return s;
}

ServiceOptions MakeOptions(uint64_t seed, bool closed_loop, MeasureMode mode,
                           obs::AuditJournal* journal) {
  ServiceOptions options;
  // The contract requires a node-bounded solver: a wall-clock deadline
  // that fires mid-search would make the incumbent depend on machine
  // load (docs/ARCHITECTURE.md §4).
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 80;
  if (closed_loop) {
    options.closed_loop = true;
    options.telemetry.mode = mode;
    options.telemetry.measure_period = 2;
    options.telemetry.seed = seed;
    // Exercise the full measurement shaping (noise + smoothing) — both
    // are seeded/stateful and must replay identically.
    options.telemetry.ewma_alpha = 0.7;
    options.telemetry.noise = 0.05;
    options.telemetry.sim.rate_scale = 0.02;
    options.telemetry.sim.duration_ms = 400;
  }
  options.audit = journal;
  return options;
}

ReplayResult Harvest(PlanningService& service) {
  ReplayResult result;
  result.fingerprint = service.deployment().Fingerprint();
  const ServiceStats& stats = service.stats();
  result.arrivals = stats.arrivals;
  result.admitted = stats.admitted;
  result.rejected = stats.rejected;
  result.dedup_hits = stats.dedup_hits;
  result.cache_fast_path = stats.cache_fast_path;
  result.evictions = stats.evictions;
  result.replan_rounds = stats.replan_rounds;
  result.replanned_admitted = stats.replanned_admitted;
  result.replanned_rejected = stats.replanned_rejected;
  result.commit_conflicts = stats.commit_conflicts;
  result.round_unwinds = stats.round_unwinds;
  result.monitor_reports = stats.monitor_reports;
  result.rate_directives = stats.rate_directives;
  result.measurement_ticks = stats.measurement_ticks;
  result.auto_replan_rounds = stats.auto_replan_rounds;
  result.analytic_ticks = stats.analytic_ticks;
  result.catalog_exhausted = stats.catalog_exhausted;
  result.solves = static_cast<int64_t>(stats.solve_ms.count());
  result.solver_nodes = stats.solver_nodes;
  result.lp_iterations = stats.lp_iterations;
  result.snapshot_bytes = stats.snapshot_bytes_copied;
  result.barrier_waits = static_cast<int64_t>(stats.barrier_ms.count());
  result.pending_replans = service.pending_replans();
  result.valid = service.deployment().Validate().ok();
  return result;
}

ReplayResult Replay(uint64_t seed, bool closed_loop = false,
                    MeasureMode mode = MeasureMode::kEngine,
                    obs::AuditJournal* journal = nullptr) {
  Scenario s = MakeScenario(seed, closed_loop);
  PlanningService service(
      s.cluster.get(), s.catalog.get(),
      MakeOptions(seed, closed_loop, mode, journal));
  for (const Event& e : s.trace) EXPECT_TRUE(service.Enqueue(e).ok());
  EXPECT_TRUE(service.RunUntilIdle().ok());
  if (journal != nullptr) service.FinalizeAudit();
  return Harvest(service);
}

class ServiceReplayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceReplayPropertyTest, WorkerCountInvariantDeployments) {
  const uint64_t seed = GetParam();
  const ReplayResult first = Replay(seed);
  EXPECT_TRUE(first.valid) << "seed " << seed;

  const ReplayResult again = Replay(seed);
  EXPECT_EQ(first, again) << "repeated replay diverged, seed " << seed;
}

// The same property over the §IV-C closed loop: the trace scripts
// ground-truth trajectories (zero monitor reports) and every
// measurement — the ClusterSim run, the seeded noise, the EWMA state,
// the drift cycle it triggers — happens at the tick barrier, so the
// full self-measuring service must replay bit for bit too.
TEST_P(ServiceReplayPropertyTest, ClosedLoopWorkerCountInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult first = Replay(seed, /*closed_loop=*/true);
  EXPECT_TRUE(first.valid) << "seed " << seed;
  EXPECT_EQ(first.monitor_reports, 0)
      << "closed-loop traces must not script measurements, seed " << seed;
  EXPECT_GT(first.measurement_ticks, 0)
      << "closed loop never self-measured, seed " << seed;
  EXPECT_GT(first.rate_directives, 0) << "seed " << seed;

  const ReplayResult again = Replay(seed, /*closed_loop=*/true);
  EXPECT_EQ(first, again) << "closed loop: replay diverged, seed " << seed;
}

// And over the analytic measurement mode (no ClusterSim in the loop):
// the ledger-derived measurements are pure functions of the committed
// state and the seeded noise stream, so the analytic drift decisions
// must replay identically.
TEST_P(ServiceReplayPropertyTest, AnalyticClosedLoopWorkerCountInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult first =
      Replay(seed, /*closed_loop=*/true, MeasureMode::kAnalytic);
  EXPECT_TRUE(first.valid) << "seed " << seed;
  EXPECT_GT(first.measurement_ticks, 0) << "seed " << seed;
  EXPECT_EQ(first.analytic_ticks, first.measurement_ticks)
      << "every measurement must take the analytic path, seed " << seed;

  const ReplayResult again =
      Replay(seed, /*closed_loop=*/true, MeasureMode::kAnalytic);
  EXPECT_EQ(first, again) << "analytic loop: replay diverged, seed " << seed;
}

// The round path (docs/ARCHITECTURE.md §4) on every trace, open and
// closed loop: each round query is solved once, at its commit point, so
// no commit conflicts, nothing unwinds, no snapshot is copied and
// nothing waits on a round. Every solve is either a cache-miss arrival
// or a live round query.
TEST_P(ServiceReplayPropertyTest, PipelineDepthWorkerMatrixInvariant) {
  const uint64_t seed = GetParam();
  for (const bool closed_loop : {false, true}) {
    const ReplayResult r = Replay(seed, closed_loop);
    EXPECT_TRUE(r.valid) << "seed " << seed;
    EXPECT_EQ(r.commit_conflicts, 0) << "seed " << seed;
    EXPECT_EQ(r.round_unwinds, 0) << "seed " << seed;
    EXPECT_EQ(r.snapshot_bytes, 0) << "seed " << seed;
    EXPECT_EQ(r.barrier_waits, 0) << "seed " << seed;
    const int64_t arrival_solves = r.arrivals - r.dedup_hits -
                                   r.cache_fast_path - r.catalog_exhausted;
    const int64_t round_queries = r.replanned_admitted + r.replanned_rejected;
    EXPECT_LE(r.solves, arrival_solves + round_queries)
        << "a query was solved more than once, seed " << seed << "\n"
        << r;
    EXPECT_GE(r.solves, arrival_solves)
        << "seed " << seed << "\n" << r;
    if (r.solves > 0) {
      EXPECT_GT(r.solver_nodes, 0) << "seed " << seed;
      EXPECT_GT(r.lp_iterations, 0) << "seed " << seed;
    }
  }
}

// The decision audit journal rides the same contract (obs/audit.h):
// canonical records are emitted at commit points only, so the canonical
// rendering — header line plus every non-speculative record, "wall"
// object stripped — must be BYTE-identical across replays. And auditing
// must never gate behaviour: the journal-attached replays commit the
// same deployment fingerprint as an audit-off replay of the same trace.
TEST_P(ServiceReplayPropertyTest, AuditJournalCanonicalBytesMatrixInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult audit_off = Replay(seed);
  EXPECT_TRUE(audit_off.valid) << "seed " << seed;

  std::string canonical;
  for (int run = 0; run < 2; ++run) {
    obs::AuditJournal journal;
    const ReplayResult replay =
        Replay(seed, /*closed_loop=*/false, MeasureMode::kEngine, &journal);
    EXPECT_EQ(replay, audit_off)
        << "auditing changed the replay, run " << run << ", seed " << seed;
    const std::string rendered = journal.ToJsonl(/*canonical=*/true);
    if (canonical.empty()) {
      canonical = rendered;
      // Shape sanity on the reference rendering: schema header,
      // terminator, and no leaked operational stratum.
      EXPECT_EQ(
          canonical.find("{\"schema\":\"sqpr-audit-v1\",\"canonical\":true}"),
          0u)
          << "seed " << seed;
      EXPECT_NE(canonical.find("\"journal.close\""), std::string::npos)
          << "seed " << seed;
      EXPECT_EQ(canonical.find("\"wall\""), std::string::npos)
          << "canonical rendering leaked wall-clock fields, seed " << seed;
      EXPECT_EQ(canonical.find("\"replan.discard\""), std::string::npos)
          << "canonical rendering leaked a speculative record, seed "
          << seed;
      EXPECT_GT(journal.canonical_size(), 0u) << "seed " << seed;
    } else {
      EXPECT_EQ(rendered, canonical)
          << "canonical audit bytes diverged between replays, seed "
          << seed;
    }
  }
}

// The durability axis of the same contract (docs/ARCHITECTURE.md
// "Durability & degraded modes"): kill the service after event k,
// restore the checkpoint into a fresh process, finish the trace — and
// land exactly where an uninterrupted run lands:
//
//   1. The checkpoint taken at event k is BYTE-identical across
//      replays (ExportCheckpoint is a barrier that commits the pending
//      round first).
//   2. A fresh scenario (rebuilt from the same seed, as a restarted
//      process would) restored from that checkpoint and fed the
//      not-yet-consumed suffix commits the uninterrupted run's
//      deployment — same fingerprint, same logical statistics.
//   3. The restored run's final checkpoint is byte-identical to an
//      uninterrupted run's.
//
// The uninterrupted baseline ALSO checkpoints at event k: exporting is
// a barrier that commits the pending round and re-canonicalizes the
// ledgers (bumping the deployment version), so it is part of the
// replayed history — crashing and non-crashing runs must share it.
// Solver effort is compared only on the logical tie below: the
// restored process starts its effort counters at zero.
auto LogicalTie(const ReplayResult& r) {
  return std::tie(r.fingerprint, r.admitted, r.rejected, r.dedup_hits,
                  r.cache_fast_path, r.evictions, r.replanned_admitted,
                  r.replanned_rejected, r.monitor_reports, r.rate_directives,
                  r.pending_replans, r.valid);
}

TEST_P(ServiceReplayPropertyTest, CheckpointRestoreCrashInvariant) {
  const uint64_t seed = GetParam();
  constexpr int kCrashAfter = 12;

  std::string checkpoint;      // taken at event k
  std::string baseline_final;  // final checkpoint, uninterrupted run
  ReplayResult baseline;
  for (int run = 0; run < 2; ++run) {
    Scenario s = MakeScenario(seed, /*closed_loop=*/false);
    ASSERT_GT(s.trace.size(), static_cast<size_t>(kCrashAfter));
    PlanningService service(
        s.cluster.get(), s.catalog.get(),
        MakeOptions(seed, /*closed_loop=*/false, MeasureMode::kEngine,
                    nullptr));
    for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
    for (int i = 0; i < kCrashAfter; ++i) {
      ASSERT_TRUE(service.HasPendingEvents());
      const Result<EventOutcome> outcome = service.Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    Result<std::string> ck = service.ExportCheckpoint();
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    ASSERT_TRUE(service.RunUntilIdle().ok());
    Result<std::string> fin = service.ExportCheckpoint();
    ASSERT_TRUE(fin.ok()) << fin.status().ToString();
    if (checkpoint.empty()) {
      checkpoint = std::move(*ck);
      baseline = Harvest(service);
      ASSERT_TRUE(baseline.valid) << "seed " << seed;
      baseline_final = std::move(*fin);
    } else {
      EXPECT_EQ(*ck, checkpoint)
          << "checkpoint at event " << kCrashAfter << " diverged, seed "
          << seed;
      EXPECT_EQ(*fin, baseline_final)
          << "final checkpoint diverged, seed " << seed;
    }
  }

  // The "restarted process": fresh scenario from the same seed,
  // restore, replay only the suffix.
  Scenario s = MakeScenario(seed, /*closed_loop=*/false);
  PlanningService restored(
      s.cluster.get(), s.catalog.get(),
      MakeOptions(seed, /*closed_loop=*/false, MeasureMode::kEngine,
                  nullptr));
  const Status ok = restored.RestoreCheckpoint(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << ", seed " << seed;
  ASSERT_EQ(restored.stats().events, kCrashAfter);
  for (size_t i = kCrashAfter; i < s.trace.size(); ++i) {
    ASSERT_TRUE(restored.Enqueue(s.trace[i]).ok());
  }
  ASSERT_TRUE(restored.RunUntilIdle().ok());
  const ReplayResult result = Harvest(restored);
  EXPECT_TRUE(LogicalTie(baseline) == LogicalTie(result))
      << "restored run diverged, seed " << seed << "\nbaseline: " << baseline
      << "\nrestored: " << result;
  const Result<std::string> fin = restored.ExportCheckpoint();
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(*fin, baseline_final)
      << "final checkpoint diverged after restore, seed " << seed;
}

// The same kill-restore-finish property through the §IV-C closed loop,
// which adds the telemetry state to the checkpoint: ground-truth
// trajectories (walk phases are re-derived lazily from virtual time),
// the raw measurement-noise RNG state (data-dependent draw count, so it
// is serialized verbatim), EWMA smoothing state and the last measured
// rates.
TEST_P(ServiceReplayPropertyTest, ClosedLoopCheckpointRestoreInvariant) {
  const uint64_t seed = GetParam();
  constexpr int kCrashAfter = 12;

  std::string checkpoint;
  std::string baseline_final;
  ReplayResult baseline;
  {
    Scenario s = MakeScenario(seed, /*closed_loop=*/true);
    ASSERT_GT(s.trace.size(), static_cast<size_t>(kCrashAfter));
    PlanningService service(s.cluster.get(), s.catalog.get(),
                            MakeOptions(seed, /*closed_loop=*/true,
                                        MeasureMode::kEngine, nullptr));
    for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
    for (int i = 0; i < kCrashAfter; ++i) {
      const Result<EventOutcome> outcome = service.Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    Result<std::string> ck = service.ExportCheckpoint();
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    checkpoint = std::move(*ck);
    ASSERT_TRUE(service.RunUntilIdle().ok());
    baseline = Harvest(service);
    ASSERT_TRUE(baseline.valid) << "seed " << seed;
    Result<std::string> fin = service.ExportCheckpoint();
    ASSERT_TRUE(fin.ok()) << fin.status().ToString();
    baseline_final = std::move(*fin);
  }

  Scenario s = MakeScenario(seed, /*closed_loop=*/true);
  PlanningService restored(
      s.cluster.get(), s.catalog.get(),
      MakeOptions(seed, /*closed_loop=*/true, MeasureMode::kEngine,
                  nullptr));
  const Status ok = restored.RestoreCheckpoint(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << ", seed " << seed;
  for (size_t i = kCrashAfter; i < s.trace.size(); ++i) {
    ASSERT_TRUE(restored.Enqueue(s.trace[i]).ok());
  }
  ASSERT_TRUE(restored.RunUntilIdle().ok());
  const ReplayResult result = Harvest(restored);
  EXPECT_TRUE(LogicalTie(baseline) == LogicalTie(result))
      << "closed loop: restored run diverged, seed " << seed
      << "\nbaseline: " << baseline << "\nrestored: " << result;
  const Result<std::string> fin = restored.ExportCheckpoint();
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(*fin, baseline_final)
      << "closed loop: final checkpoint diverged after restore, seed "
      << seed;
}

INSTANTIATE_TEST_SUITE_P(Traces, ServiceReplayPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace sqpr
