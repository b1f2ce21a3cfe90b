#include "wlm/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "trace/demand_trace.h"
#include "wlm/controller.h"

namespace ropus::wlm {
namespace {

using trace::Calendar;
using trace::DemandTrace;

qos::Translation make_translation(double theta = 0.6) {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 100.0;
  const Calendar cal(1, 720);
  std::vector<double> v(cal.size(), 1.0);
  v[3] = 4.0;  // peak
  return qos::translate(DemandTrace("t", cal, v), req,
                        qos::CosCommitment{theta, 720.0});
}

/// The channel's reading of one interval, through a one-slot block.
Observation read(TelemetryChannel& channel, double true_demand) {
  Observation out;
  channel.observe_block(std::span(&true_demand, 1), std::span(&out, 1));
  return out;
}

TEST(TelemetryFaultModel, ValidatesRates) {
  TelemetryFaultModel model;
  model.drop_rate = 1.5;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model.drop_rate = 0.0;
  model.stale_rate = -0.1;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model.stale_rate = 0.0;
  model.max_staleness = 0;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model.max_staleness = 3;
  model.noise_stddev = -1.0;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model.noise_stddev = 0.0;
  model.blackout_mean_intervals = 0.5;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model.blackout_mean_intervals = 6.0;
  EXPECT_NO_THROW(model.validate());
  EXPECT_FALSE(model.enabled());
}

TEST(TelemetryChannel, ZeroRatesPassValuesThroughExactly) {
  TelemetryChannel channel(TelemetryFaultModel{}, 42);
  for (double v : {0.0, 1.5, 3.25, 0.125}) {
    const Observation obs = read(channel, v);
    EXPECT_EQ(obs.kind, ObservationClass::kOk);
    EXPECT_EQ(obs.value, v);  // bit-exact, no noise draw
    EXPECT_EQ(obs.staleness, 0u);
  }
}

TEST(TelemetryChannel, DropRateOneLosesEveryReading) {
  TelemetryFaultModel model;
  model.drop_rate = 1.0;
  TelemetryChannel channel(model, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(read(channel, 1.0).kind, ObservationClass::kMissing);
  }
}

TEST(TelemetryChannel, StaleRepeatsEarlierTrueValue) {
  TelemetryFaultModel model;
  model.stale_rate = 1.0;
  model.max_staleness = 1;
  TelemetryChannel channel(model, 7);
  // Interval 0 has no earlier reading to repeat: degenerates to missing.
  EXPECT_EQ(read(channel, 10.0).kind, ObservationClass::kMissing);
  const Observation obs = read(channel, 20.0);
  EXPECT_EQ(obs.kind, ObservationClass::kStale);
  EXPECT_EQ(obs.staleness, 1u);
  EXPECT_EQ(obs.value, 10.0);
  const Observation obs2 = read(channel, 30.0);
  EXPECT_EQ(obs2.value, 20.0);
}

TEST(TelemetryChannel, CorruptRateOneEmitsGarbageValues) {
  TelemetryFaultModel model;
  model.corrupt_rate = 1.0;
  TelemetryChannel channel(model, 11);
  bool saw_nan = false, saw_inf = false, saw_negative = false,
       saw_spike = false;
  for (int i = 0; i < 200; ++i) {
    const Observation obs = read(channel, 2.0);
    ASSERT_EQ(obs.kind, ObservationClass::kCorrupt);
    if (std::isnan(obs.value)) saw_nan = true;
    else if (std::isinf(obs.value)) saw_inf = true;
    else if (obs.value < 0.0) saw_negative = true;
    else saw_spike = true;
  }
  EXPECT_TRUE(saw_nan);
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_spike);
}

TEST(TelemetryChannel, BlackoutsProduceMissingRuns) {
  TelemetryFaultModel model;
  model.blackout_rate = 0.05;
  model.blackout_mean_intervals = 5.0;
  TelemetryChannel channel(model, 13);
  std::size_t missing = 0, longest = 0, run = 0;
  for (int i = 0; i < 2000; ++i) {
    if (read(channel, 1.0).kind == ObservationClass::kMissing) {
      missing += 1;
      run += 1;
      longest = std::max(longest, run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(missing, 0u);
  EXPECT_GE(longest, 2u);  // blackouts span multiple intervals
}

TEST(TelemetryChannel, SameSeedSameFaultSequence) {
  TelemetryFaultModel model;
  model.drop_rate = 0.2;
  model.stale_rate = 0.1;
  model.corrupt_rate = 0.05;
  model.noise_stddev = 0.3;
  TelemetryChannel a(model, 99);
  TelemetryChannel b(model, 99);
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>(i % 7);
    const Observation oa = read(a, v);
    const Observation ob = read(b, v);
    ASSERT_EQ(oa.kind, ob.kind);
    ASSERT_EQ(oa.staleness, ob.staleness);
    if (!std::isnan(oa.value)) {
      ASSERT_EQ(oa.value, ob.value);
    }
  }
}

TEST(TelemetryChannel, HigherDropRateSupersetsLowerUnderOneSeed) {
  // Common random numbers: the drop process consumes one draw per interval
  // whenever it is enabled, so under one seed the intervals dropped at rate
  // 0.1 are a subset of those dropped at rate 0.3.
  TelemetryFaultModel lo;
  lo.drop_rate = 0.1;
  TelemetryFaultModel hi;
  hi.drop_rate = 0.3;
  TelemetryChannel a(lo, 123);
  TelemetryChannel b(hi, 123);
  for (int i = 0; i < 2000; ++i) {
    const bool lo_missing =
        read(a, 1.0).kind == ObservationClass::kMissing;
    const bool hi_missing =
        read(b, 1.0).kind == ObservationClass::kMissing;
    if (lo_missing) {
      ASSERT_TRUE(hi_missing);
    }
  }
}

TEST(HealthReport, MergeAddsCountsAndMaxesBlackout) {
  HealthReport a;
  a.intervals = 10;
  a.ok = 6;
  a.missing = 4;
  a.fallback_intervals = 4;
  a.fallback_activations = 2;
  a.longest_blackout = 3;
  HealthReport b;
  b.intervals = 5;
  b.stale = 1;
  b.corrupt = 1;
  b.fallback_intervals = 2;
  b.fallback_activations = 1;
  b.longest_blackout = 2;
  a.merge(b);
  EXPECT_EQ(a.intervals, 15u);
  EXPECT_EQ(a.ok, 6u);
  EXPECT_EQ(a.stale, 1u);
  EXPECT_EQ(a.missing, 4u);
  EXPECT_EQ(a.corrupt, 1u);
  EXPECT_EQ(a.fallback_intervals, 6u);
  EXPECT_EQ(a.fallback_activations, 3u);
  EXPECT_EQ(a.longest_blackout, 3u);
}

TEST(DegradedController, ObserveWithOkObservationsMatchesStepBitForBit) {
  const std::vector<double> demand = {1.0, 3.0, 0.5, 2.0, 0.0,
                                      4.0, 1.5, 0.25, 3.5, 2.5};
  const struct {
    Policy policy;
    std::size_t window;
  } cases[] = {{Policy::kClairvoyant, 3},
               {Policy::kReactive, 3},
               {Policy::kWindowedMax, 3}};
  for (const auto& pc : cases) {
    Controller via_step(make_translation(), pc.policy, pc.window);
    Controller via_observe(make_translation(), pc.policy, pc.window);
    std::vector<AllocationRequest> stepped(demand.size());
    via_step.step_run(demand, stepped);
    TelemetryChannel perfect(TelemetryFaultModel{}, 1);
    std::vector<Observation> readings(demand.size());
    perfect.observe_block(demand, readings);
    for (std::size_t i = 0; i < demand.size(); ++i) {
      const AllocationRequest b = via_observe.observe(readings[i]);
      ASSERT_EQ(stepped[i].cos1, b.cos1);
      ASSERT_EQ(stepped[i].cos2, b.cos2);
    }
    EXPECT_EQ(via_observe.health().ok, demand.size());
    EXPECT_EQ(via_observe.health().fallback_intervals, 0u);
    EXPECT_FALSE(via_observe.in_fallback());
  }
}

TEST(DegradedController, StepRoutesNonFiniteAndNegativeThroughCorruptPath) {
  // The input guard: garbage demand, even tagged ok, never throws and never
  // reaches the allocation arithmetic — it is served by the fallback policy.
  Controller c(make_translation(), Policy::kClairvoyant);
  const AllocationRequest good = c.observe(Observation::ok(1.0));
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0}) {
    AllocationRequest r;
    ASSERT_NO_THROW(r = c.observe(Observation::ok(bad))) << bad;
    // kHoldLast: re-issues the last measurement-driven request.
    EXPECT_EQ(r.cos1, good.cos1);
    EXPECT_EQ(r.cos2, good.cos2);
    EXPECT_TRUE(c.in_fallback());
  }
  EXPECT_EQ(c.health().corrupt, 4u);
  EXPECT_EQ(c.health().ok, 1u);
  // A good reading afterwards leaves fallback.
  (void)c.observe(Observation::ok(2.0));
  EXPECT_FALSE(c.in_fallback());
}

TEST(DegradedController, HoldLastRepeatsLastMeasurementRequest) {
  Controller c(make_translation(), Policy::kClairvoyant);
  const AllocationRequest last = c.observe(Observation::ok(2.0));
  for (int i = 0; i < 5; ++i) {
    const AllocationRequest r = c.observe(Observation::missing());
    EXPECT_EQ(r.cos1, last.cos1);
    EXPECT_EQ(r.cos2, last.cos2);
  }
  EXPECT_EQ(c.consecutive_degraded(), 5u);
  EXPECT_EQ(c.health().longest_blackout, 5u);
  EXPECT_EQ(c.health().fallback_activations, 1u);
}

TEST(DegradedController, DecayToMaxRampsTowardMaxAllocation) {
  DegradedModeConfig cfg;
  cfg.fallback = FallbackPolicy::kDecayToMax;
  cfg.decay_intervals = 2;
  const qos::Translation tr = make_translation();
  Controller c(tr, Policy::kClairvoyant, 3, cfg);
  (void)c.observe(Observation::ok(1.0));  // last basis = 1.0, d_new_max = 4.0
  const double u_low = tr.requirement.u_low;
  const AllocationRequest one = c.observe(Observation::missing());
  EXPECT_NEAR(one.total(), (1.0 + (tr.d_new_max - 1.0) * 0.5) / u_low, 1e-12);
  const AllocationRequest two = c.observe(Observation::missing());
  EXPECT_NEAR(two.total(), tr.d_new_max / u_low, 1e-12);
  // Past the ramp: pinned at the maximum.
  const AllocationRequest three = c.observe(Observation::missing());
  EXPECT_NEAR(three.total(), tr.d_new_max / u_low, 1e-12);
}

TEST(DegradedController, EntitlementFloorRequestsOnlyCos1Share) {
  DegradedModeConfig cfg;
  cfg.fallback = FallbackPolicy::kEntitlementFloor;
  const qos::Translation tr = make_translation();
  ASSERT_GT(tr.breakpoint_p, 0.0);
  Controller c(tr, Policy::kClairvoyant, 3, cfg);
  (void)c.observe(Observation::ok(4.0));
  const AllocationRequest r = c.observe(Observation::missing());
  EXPECT_NEAR(r.cos1, tr.cos1_demand_cap() / tr.requirement.u_low, 1e-12);
  EXPECT_EQ(r.cos2, 0.0);
}

TEST(DegradedController, StaleWithinToleranceIsUsedAsMeasurement) {
  DegradedModeConfig cfg;
  cfg.stale_tolerance = 1;
  Controller c(make_translation(), Policy::kClairvoyant, 3, cfg);
  const AllocationRequest r =
      c.observe(Observation{2.0, ObservationClass::kStale, 1});
  Controller fresh(make_translation(), Policy::kClairvoyant);
  const AllocationRequest expect = fresh.observe(Observation::ok(2.0));
  EXPECT_EQ(r.total(), expect.total());
  EXPECT_FALSE(c.in_fallback());
  EXPECT_EQ(c.health().stale, 1u);

  // Two intervals old exceeds the tolerance: fallback.
  (void)c.observe(Observation{3.0, ObservationClass::kStale, 2});
  EXPECT_TRUE(c.in_fallback());
  EXPECT_EQ(c.health().stale, 2u);
  EXPECT_EQ(c.health().fallback_intervals, 1u);
}

TEST(DegradedController, SpikeFilterClassifiesImplausibleReadings) {
  DegradedModeConfig cfg;
  cfg.spike_threshold_factor = 2.0;
  const qos::Translation tr = make_translation();
  Controller c(tr, Policy::kClairvoyant, 3, cfg);
  EXPECT_EQ(c.classify(Observation::ok(tr.d_new_max * 1.5)),
            ObservationClass::kOk);
  EXPECT_EQ(c.classify(Observation::ok(tr.d_new_max * 2.5)),
            ObservationClass::kCorrupt);
  // Disabled by default: any finite non-negative value is ok.
  Controller open(tr, Policy::kClairvoyant);
  EXPECT_EQ(open.classify(Observation::ok(tr.d_new_max * 1000.0)),
            ObservationClass::kOk);
}

TEST(DegradedController, ResetClearsFallbackStateButKeepsHealth) {
  Controller c(make_translation(), Policy::kReactive);
  (void)c.observe(Observation::ok(1.0));
  (void)c.observe(Observation::missing());
  EXPECT_TRUE(c.in_fallback());
  c.reset();
  EXPECT_FALSE(c.in_fallback());
  EXPECT_EQ(c.health().missing, 1u);  // lifetime health persists
  // Post-reset the controller requests conservatively again.
  const AllocationRequest r = c.observe(Observation::ok(2.0));
  EXPECT_NEAR(r.total(), 4.0 / 0.5, 1e-9);
}

TEST(DegradedController, ValidatesDegradedConfig) {
  DegradedModeConfig cfg;
  cfg.decay_intervals = 0;
  EXPECT_THROW(Controller(make_translation(), Policy::kReactive, 3, cfg),
               InvalidArgument);
  cfg.decay_intervals = 6;
  cfg.spike_threshold_factor = -1.0;
  EXPECT_THROW(Controller(make_translation(), Policy::kReactive, 3, cfg),
               InvalidArgument);
}

}  // namespace
}  // namespace ropus::wlm
