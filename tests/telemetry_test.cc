// Tests for the closed-loop telemetry subsystem (§IV-C): ground-truth
// rate trajectories on the virtual clock and the periodic
// self-measurement engine (ClusterSim under true rates, seeded noise,
// EWMA smoothing). Everything here must be a pure function of
// (seed, trajectories, virtual time) — the service's determinism
// contract extends to closed-loop mode only because it is.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/catalog.h"
#include "model/cluster.h"
#include "monitor/resource_monitor.h"
#include "plan/deployment.h"
#include "planner/sqpr/sqpr_planner.h"
#include "telemetry/measurement_engine.h"
#include "telemetry/rate_model.h"

namespace sqpr {
namespace {

// ---- RateModel trajectories. ----

TEST(RateModelTest, ConstantAndStepTrajectories) {
  RateModel model(7);
  RateTrajectory constant;
  constant.kind = RateTrajectory::Kind::kConstant;
  constant.stream = 0;
  constant.base_rate_mbps = 12.5;
  ASSERT_TRUE(model.Install(constant, /*now_ms=*/100).ok());

  RateTrajectory step;
  step.kind = RateTrajectory::Kind::kStep;
  step.stream = 1;
  step.base_rate_mbps = 10.0;
  step.step_at_ms = 500;
  step.step_factor = 2.0;
  ASSERT_TRUE(model.Install(step, /*now_ms=*/100).ok());

  EXPECT_DOUBLE_EQ(*model.RateAt(0, 100), 12.5);
  EXPECT_DOUBLE_EQ(*model.RateAt(0, 100000), 12.5);
  // Step times are relative to the install time.
  EXPECT_DOUBLE_EQ(*model.RateAt(1, 100), 10.0);
  EXPECT_DOUBLE_EQ(*model.RateAt(1, 599), 10.0);
  EXPECT_DOUBLE_EQ(*model.RateAt(1, 600), 20.0);
  EXPECT_DOUBLE_EQ(*model.RateAt(1, 10000), 20.0);

  EXPECT_FALSE(model.RateAt(99, 100).ok());  // unmodelled stream
  EXPECT_TRUE(model.Models(0));
  EXPECT_FALSE(model.Models(99));
}

TEST(RateModelTest, PeriodicOscillatesAroundBaseWithinAmplitude) {
  RateModel model(7);
  RateTrajectory periodic;
  periodic.kind = RateTrajectory::Kind::kPeriodic;
  periodic.stream = 3;
  periodic.base_rate_mbps = 10.0;
  periodic.period_ms = 1000;
  periodic.amplitude = 0.5;
  periodic.phase = 0.0;
  ASSERT_TRUE(model.Install(periodic, /*now_ms=*/0).ok());

  double lo = 1e300, hi = -1e300;
  for (int64_t t = 0; t <= 2000; t += 50) {
    const double r = *model.RateAt(3, t);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
    EXPECT_GE(r, 10.0 * (1.0 - 0.5) - 1e-9);
    EXPECT_LE(r, 10.0 * (1.0 + 0.5) + 1e-9);
  }
  // Two full periods sampled at 1/20 resolution must visit both halves.
  EXPECT_LT(lo, 10.0 * 0.7);
  EXPECT_GT(hi, 10.0 * 1.3);
  // Phase zero: the trajectory starts at the base rate.
  EXPECT_DOUBLE_EQ(*model.RateAt(3, 0), 10.0);
}

TEST(RateModelTest, RandomWalkIsSeededDeterministicAndBounded) {
  RateTrajectory walk;
  walk.kind = RateTrajectory::Kind::kRandomWalk;
  walk.stream = 5;
  walk.base_rate_mbps = 10.0;
  walk.period_ms = 100;
  walk.volatility = 0.3;
  walk.min_factor = 0.5;
  walk.max_factor = 2.0;

  RateModel a(42), b(42), c(43);
  ASSERT_TRUE(a.Install(walk, 0).ok());
  ASSERT_TRUE(b.Install(walk, 0).ok());
  ASSERT_TRUE(c.Install(walk, 0).ok());

  bool moved = false, differs = false;
  for (int64_t t = 0; t <= 10000; t += 100) {
    const double ra = *a.RateAt(5, t);
    // Same seed => identical walk, step for step.
    EXPECT_DOUBLE_EQ(ra, *b.RateAt(5, t)) << "t=" << t;
    differs |= std::abs(ra - *c.RateAt(5, t)) > 1e-12;
    moved |= std::abs(ra - 10.0) > 1e-12;
    // Clamped to [min_factor, max_factor] * base.
    EXPECT_GE(ra, 10.0 * 0.5 - 1e-9);
    EXPECT_LE(ra, 10.0 * 2.0 + 1e-9);
  }
  EXPECT_TRUE(moved) << "walk never left the base rate";
  EXPECT_TRUE(differs) << "different seeds produced identical walks";

  // The walk is a function of virtual time, not of call count:
  // re-querying the same timestamp returns the same value.
  const double at_5s = *a.RateAt(5, 5000);
  EXPECT_DOUBLE_EQ(*a.RateAt(5, 5000), at_5s);
}

TEST(RateModelTest, InstallValidatesAndReplaces) {
  RateModel model(1);
  RateTrajectory bad;
  bad.stream = 2;
  bad.base_rate_mbps = 0.0;  // must be positive
  EXPECT_FALSE(model.Install(bad, 0).ok());
  bad.stream = kInvalidStream;
  bad.base_rate_mbps = 5.0;
  EXPECT_FALSE(model.Install(bad, 0).ok());
  EXPECT_TRUE(model.empty());

  RateTrajectory first;
  first.stream = 2;
  first.base_rate_mbps = 5.0;
  ASSERT_TRUE(model.Install(first, 0).ok());
  RateTrajectory replacement = first;
  replacement.base_rate_mbps = 8.0;
  ASSERT_TRUE(model.Install(replacement, 100).ok());
  EXPECT_EQ(model.size(), 1u);
  EXPECT_DOUBLE_EQ(*model.RateAt(2, 200), 8.0);

  // Out-of-range knobs are clamped, not rejected: a periodic amplitude
  // >= 1 would drive the true rate negative, which could never be
  // installed as a catalog rate.
  RateTrajectory loud;
  loud.kind = RateTrajectory::Kind::kPeriodic;
  loud.stream = 3;
  loud.base_rate_mbps = 10.0;
  loud.period_ms = 1000;
  loud.amplitude = 5.0;
  loud.phase = -1.5707963267948966;  // sin = -1: the trough
  ASSERT_TRUE(model.Install(loud, 0).ok());
  EXPECT_GT(*model.RateAt(3, 0), 0.0);
}

// ---- MeasurementEngine. ----

/// A deployed two-way join to measure: a ⋈ b placed on host 0, served
/// from host 0.
struct MeasuredScenario {
  MeasuredScenario()
      : cluster(2, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0),
        catalog(CostModel{}) {
    a = catalog.AddBaseStream(0, 10.0, "a");
    b = catalog.AddBaseStream(0, 10.0, "b");
    planner = std::make_unique<SqprPlanner>(&cluster, &catalog,
                                            SqprPlanner::Options{});
    ab = *catalog.CanonicalJoinStream({a, b});
    EXPECT_TRUE(planner->SubmitQuery(ab)->admitted);
  }

  Cluster cluster;
  Catalog catalog;
  StreamId a, b, ab;
  std::unique_ptr<SqprPlanner> planner;
};

TelemetryOptions CheapTelemetry(uint64_t seed) {
  TelemetryOptions options;
  options.seed = seed;
  options.sim.rate_scale = 0.05;
  options.sim.duration_ms = 1000;
  return options;
}

TEST(MeasurementEngineTest, ObservesGroundTruthRatesAndCpuDrift) {
  MeasuredScenario s;

  // Baseline: no trajectories — everything measures on-estimate.
  MeasurementEngine baseline(&s.catalog, CheapTelemetry(11));
  Result<Measurement> on_estimate =
      baseline.Measure(s.planner->deployment(), 1000);
  ASSERT_TRUE(on_estimate.ok()) << on_estimate.status().ToString();
  ASSERT_EQ(on_estimate->cpu_utilization.size(), 2u);

  // Ground truth: stream a actually runs at twice its estimate.
  MeasurementEngine drifted(&s.catalog, CheapTelemetry(11));
  RateTrajectory twice;
  twice.stream = s.a;
  twice.base_rate_mbps = 20.0;
  ASSERT_TRUE(drifted.rate_model().Install(twice, 0).ok());
  Result<Measurement> m = drifted.Measure(s.planner->deployment(), 1000);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(drifted.measurements(), 1);

  // The realised rate of a tracks the truth (sim quantisation leaves a
  // few percent), not the catalog estimate of 10.
  ASSERT_EQ(m->measured_base_rates.count(s.a), 1u);
  EXPECT_NEAR(m->measured_base_rates.at(s.a), 20.0, 2.0);
  // More input tuples at unchanged per-tuple cost: host 0 works harder
  // than it did on estimate.
  EXPECT_GT(m->cpu_utilization[0], on_estimate->cpu_utilization[0] * 1.3);
}

TEST(MeasurementEngineTest, NoiseIsSeededAndBounded) {
  MeasuredScenario s;

  TelemetryOptions noisy = CheapTelemetry(5);
  noisy.noise = 0.2;
  MeasurementEngine e1(&s.catalog, noisy);
  MeasurementEngine e2(&s.catalog, noisy);
  TelemetryOptions exact = CheapTelemetry(5);
  MeasurementEngine e0(&s.catalog, exact);

  Result<Measurement> m1 = e1.Measure(s.planner->deployment(), 500);
  Result<Measurement> m2 = e2.Measure(s.planner->deployment(), 500);
  Result<Measurement> m0 = e0.Measure(s.planner->deployment(), 500);
  ASSERT_TRUE(m1.ok() && m2.ok() && m0.ok());

  // Same seed => bit-identical noisy measurements (the determinism the
  // closed-loop replay contract rests on).
  EXPECT_EQ(m1->measured_base_rates, m2->measured_base_rates);
  EXPECT_EQ(m1->cpu_utilization, m2->cpu_utilization);

  // Noise stays within the configured relative band of the exact run.
  for (const auto& [stream, rate] : m0->measured_base_rates) {
    ASSERT_EQ(m1->measured_base_rates.count(stream), 1u);
    EXPECT_NEAR(m1->measured_base_rates.at(stream), rate,
                0.2 * rate + 1e-9);
  }
}

TEST(MeasurementEngineTest, EwmaSmoothsSuccessiveMeasurements) {
  MeasuredScenario s;

  TelemetryOptions smooth = CheapTelemetry(3);
  smooth.ewma_alpha = 0.5;
  MeasurementEngine engine(&s.catalog, smooth);

  RateTrajectory flat;
  flat.stream = s.a;
  flat.base_rate_mbps = 10.0;  // on estimate at first
  ASSERT_TRUE(engine.rate_model().Install(flat, 0).ok());
  Result<Measurement> first = engine.Measure(s.planner->deployment(), 1000);
  ASSERT_TRUE(first.ok());
  const double first_a = first->measured_base_rates.at(s.a);

  // The truth jumps to 30; with alpha = 0.5 the smoothed measurement
  // lands halfway between the previous state and the new sample.
  RateTrajectory jump;
  jump.stream = s.a;
  jump.base_rate_mbps = 30.0;
  ASSERT_TRUE(engine.rate_model().Install(jump, 1000).ok());
  Result<Measurement> second = engine.Measure(s.planner->deployment(), 2000);
  ASSERT_TRUE(second.ok());
  const double second_a = second->measured_base_rates.at(s.a);
  EXPECT_GT(second_a, first_a + 5.0);   // moved toward the new truth...
  EXPECT_LT(second_a, 30.0 - 5.0);      // ...but not all the way
}

// ---- Analytic measurement mode (the §IV-C hot-path optimisation). ----

/// The tentpole equivalence contract: at noise = 0, the analytic mode's
/// measurements must lead the §IV-B monitor to the SAME drift decisions
/// the engine mode's do, as long as the trajectories keep a clear
/// margin from the drift threshold (the engine realises rates in whole
/// tuples, so a few percent of quantisation noise is inherent to it).
TEST(MeasurementEngineTest, AnalyticMatchesEngineDriftDecisionsAtZeroNoise) {
  MeasuredScenario s;

  TelemetryOptions engine_opts = CheapTelemetry(17);
  TelemetryOptions analytic_opts = engine_opts;
  analytic_opts.mode = MeasureMode::kAnalytic;
  MeasurementEngine engine(&s.catalog, engine_opts);
  MeasurementEngine analytic(&s.catalog, analytic_opts);

  // Trajectories with fat margins around the 20% drift threshold:
  // a steps to 1.8x its estimate after 1.5 s; b runs at half estimate
  // throughout. Install identically into both ground-truth models.
  RateTrajectory step;
  step.kind = RateTrajectory::Kind::kStep;
  step.stream = s.a;
  step.base_rate_mbps = 10.0;
  step.step_at_ms = 1500;
  step.step_factor = 1.8;
  RateTrajectory half;
  half.stream = s.b;
  half.base_rate_mbps = 5.0;
  for (MeasurementEngine* e : {&engine, &analytic}) {
    ASSERT_TRUE(e->rate_model().Install(step, 0).ok());
    ASSERT_TRUE(e->rate_model().Install(half, 0).ok());
  }

  const ResourceMonitor monitor(&s.catalog, DriftOptions{});
  for (int64_t t : {500, 1000, 2000, 3000}) {
    Result<Measurement> me = engine.Measure(s.planner->deployment(), t);
    Result<Measurement> ma = analytic.Measure(s.planner->deployment(), t);
    ASSERT_TRUE(me.ok() && ma.ok()) << "t=" << t;

    const DriftReport de =
        monitor.Analyze(me->measured_base_rates, me->cpu_utilization,
                        s.planner->admitted_queries(),
                        s.planner->deployment());
    const DriftReport da =
        monitor.Analyze(ma->measured_base_rates, ma->cpu_utilization,
                        s.planner->admitted_queries(),
                        s.planner->deployment());
    EXPECT_EQ(de.drifted_base_streams, da.drifted_base_streams) << "t=" << t;
    EXPECT_EQ(de.overloaded_hosts, da.overloaded_hosts) << "t=" << t;
    EXPECT_EQ(de.queries_to_replan, da.queries_to_replan) << "t=" << t;
    // Sanity on the expected decisions themselves: b always drifted
    // (half rate), a joins it after the step.
    EXPECT_EQ(da.drifted_base_streams.empty(), false) << "t=" << t;
    EXPECT_EQ(std::count(da.drifted_base_streams.begin(),
                         da.drifted_base_streams.end(), s.a) == 1,
              t >= 1600)
        << "t=" << t;
  }
}

TEST(MeasurementEngineTest, AnalyticCpuIsCommittedCostScaledByTruthRatio) {
  MeasuredScenario s;

  TelemetryOptions opts = CheapTelemetry(19);
  opts.mode = MeasureMode::kAnalytic;
  MeasurementEngine analytic(&s.catalog, opts);

  // Truth: a runs at 2x estimate, b on estimate. The join's input rates
  // sum to 30 Mbps true vs 20 estimated, so the host's true CPU is the
  // committed ledger scaled by 1.5 — no simulation involved.
  RateTrajectory twice;
  twice.stream = s.a;
  twice.base_rate_mbps = 20.0;
  ASSERT_TRUE(analytic.rate_model().Install(twice, 0).ok());

  Result<Measurement> m = analytic.Measure(s.planner->deployment(), 1000);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->cpu_utilization.size(), 2u);
  const double committed_cpu = s.planner->deployment().CpuUsed(0);
  EXPECT_NEAR(m->cpu_utilization[0], committed_cpu * 1.5 / 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(m->cpu_utilization[1], 0.0);
  // Rates report the model truth exactly — no tuple quantisation.
  EXPECT_DOUBLE_EQ(m->measured_base_rates.at(s.a), 20.0);
  // The raw simulation report stays empty: no ClusterSim ran.
  EXPECT_TRUE(m->raw.measured_rate_mbps.empty());
  EXPECT_TRUE(m->raw.cpu_utilization.empty());
  EXPECT_EQ(analytic.measurements(), 1);
}

TEST(MeasurementEngineTest, AnalyticNoiseAndEwmaAreSeededLikeEngine) {
  MeasuredScenario s;

  TelemetryOptions noisy = CheapTelemetry(23);
  noisy.mode = MeasureMode::kAnalytic;
  noisy.noise = 0.2;
  noisy.ewma_alpha = 0.5;
  MeasurementEngine e1(&s.catalog, noisy);
  MeasurementEngine e2(&s.catalog, noisy);

  RateTrajectory twice;
  twice.stream = s.a;
  twice.base_rate_mbps = 20.0;
  ASSERT_TRUE(e1.rate_model().Install(twice, 0).ok());
  ASSERT_TRUE(e2.rate_model().Install(twice, 0).ok());

  for (int64_t t : {500, 1000, 1500}) {
    Result<Measurement> m1 = e1.Measure(s.planner->deployment(), t);
    Result<Measurement> m2 = e2.Measure(s.planner->deployment(), t);
    ASSERT_TRUE(m1.ok() && m2.ok());
    // Same seed => bit-identical noisy, smoothed analytic measurements.
    EXPECT_EQ(m1->measured_base_rates, m2->measured_base_rates);
    EXPECT_EQ(m1->cpu_utilization, m2->cpu_utilization);
    // Noise stays within the configured relative band of the truth.
    EXPECT_NEAR(m1->measured_base_rates.at(s.a), 20.0, 0.2 * 20.0 + 1e-9);
  }
}

TEST(MeasurementEngineTest, EmptyDeploymentMeasuresModelTruthOnly) {
  Cluster cluster(2, HostSpec{1.0, 100.0, 100.0, ""}, 1000.0);
  Catalog catalog(CostModel{});
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  Deployment empty(&cluster, &catalog);

  MeasurementEngine engine(&catalog, CheapTelemetry(9));
  RateTrajectory half;
  half.stream = a;
  half.base_rate_mbps = 5.0;
  ASSERT_TRUE(engine.rate_model().Install(half, 0).ok());

  Result<Measurement> m = engine.Measure(empty, 100);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Nothing deployed: CPU is idle everywhere, but the source host still
  // knows its injection rate — the model truth is reported.
  ASSERT_EQ(m->cpu_utilization.size(), 2u);
  EXPECT_DOUBLE_EQ(m->cpu_utilization[0], 0.0);
  EXPECT_DOUBLE_EQ(m->cpu_utilization[1], 0.0);
  ASSERT_EQ(m->measured_base_rates.count(a), 1u);
  EXPECT_DOUBLE_EQ(m->measured_base_rates.at(a), 5.0);
}

}  // namespace
}  // namespace sqpr
