// Randomized property sweeps for the capacity simulator: invariants that
// must hold on any input, checked across seeded random aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

Aggregate random_aggregate(std::uint64_t seed, const Calendar& cal) {
  Rng rng(seed);
  Aggregate agg;
  agg.calendar = cal;
  agg.cos1.resize(cal.size());
  agg.cos2.resize(cal.size());
  agg.workloads = 1;
  // Piecewise-bursty series: baseline plus occasional spikes.
  for (std::size_t i = 0; i < cal.size(); ++i) {
    agg.cos1[i] = rng.uniform(0.0, 2.0);
    agg.cos2[i] = rng.uniform(0.0, 4.0);
    if (rng.bernoulli(0.05)) agg.cos2[i] += rng.uniform(0.0, 12.0);
    agg.peak_cos1 = std::max(agg.peak_cos1, agg.cos1[i]);
    agg.peak_total = std::max(agg.peak_total, agg.cos1[i] + agg.cos2[i]);
  }
  agg.sum_peak_cos1 = agg.peak_cos1;
  return agg;
}

class SimulatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorProperty, ThetaMonotoneInCapacity) {
  const Aggregate agg = random_aggregate(GetParam(), Calendar(1, 60));
  const qos::CosCommitment cos2{0.5, 180.0};
  double prev_theta = -1.0;
  for (double cap = agg.peak_cos1; cap <= agg.peak_total + 1.0; cap += 0.5) {
    const Evaluation ev = evaluate(agg, cap, cos2);
    ASSERT_TRUE(ev.cos1_satisfied);
    EXPECT_GE(ev.theta + 1e-12, prev_theta) << "cap " << cap;
    prev_theta = ev.theta;
  }
  // At full peak capacity everything is satisfied immediately.
  const Evaluation full = evaluate(agg, agg.peak_total, cos2);
  EXPECT_DOUBLE_EQ(full.theta, 1.0);
  EXPECT_TRUE(full.deadline_met);
  EXPECT_DOUBLE_EQ(full.max_backlog, 0.0);
}

TEST_P(SimulatorProperty, ThetaAlwaysInUnitInterval) {
  const Aggregate agg = random_aggregate(GetParam(), Calendar(1, 60));
  const qos::CosCommitment cos2{0.5, 60.0};
  for (double cap : {agg.peak_cos1, agg.peak_cos1 + 1.0,
                     0.5 * agg.peak_total, agg.peak_total}) {
    const Evaluation ev = evaluate(agg, cap, cos2);
    if (!ev.cos1_satisfied) continue;
    EXPECT_GE(ev.theta, 0.0);
    EXPECT_LE(ev.theta, 1.0);
    EXPECT_GE(ev.max_backlog, 0.0);
  }
}

TEST_P(SimulatorProperty, RequiredCapacityIsMinimalAndSatisfying) {
  const Aggregate agg = random_aggregate(GetParam(), Calendar(1, 60));
  const qos::CosCommitment cos2{0.8, 120.0};
  const double limit = agg.peak_total + 1.0;
  const RequiredCapacity rc = required_capacity(agg, limit, cos2);
  ASSERT_TRUE(rc.fits);  // the limit exceeds the peak, so it must fit
  EXPECT_TRUE(evaluate(agg, rc.capacity, cos2).satisfies(cos2));
  // Minimal on the grid: the grid point one step down fails.
  if (rc.capacity >= kCapacityStep) {
    EXPECT_FALSE(
        evaluate(agg, rc.capacity - kCapacityStep, cos2).satisfies(cos2))
        << "required capacity was not minimal";
  }
  EXPECT_LE(rc.capacity, limit + 1e-9);
}

TEST_P(SimulatorProperty, RequiredCapacityMonotoneInTheta) {
  const Aggregate agg = random_aggregate(GetParam(), Calendar(1, 60));
  const double limit = agg.peak_total + 1.0;
  double prev = 0.0;
  for (double theta : {0.3, 0.5, 0.7, 0.9, 0.99}) {
    const RequiredCapacity rc =
        required_capacity(agg, limit, qos::CosCommitment{theta, 120.0});
    ASSERT_TRUE(rc.fits) << "theta " << theta;
    EXPECT_GE(rc.capacity, prev) << "theta " << theta;
    prev = rc.capacity;
  }
}

TEST_P(SimulatorProperty, RequiredCapacityMonotoneInDeadline) {
  const Aggregate agg = random_aggregate(GetParam(), Calendar(1, 60));
  const double limit = agg.peak_total + 1.0;
  double prev = limit;
  for (double deadline : {0.0, 60.0, 240.0, 720.0}) {
    const RequiredCapacity rc =
        required_capacity(agg, limit, qos::CosCommitment{0.5, deadline});
    ASSERT_TRUE(rc.fits) << "deadline " << deadline;
    EXPECT_LE(rc.capacity, prev) << "deadline " << deadline;
    prev = rc.capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// Required capacity is not monotone in the workload set. Theta is a ratio
// per (week, slot-of-day) group, so a workload whose CoS2 the server can
// satisfy raises its group's ratio and can lower the capacity it needs.
// Workload A alone is bound by theta in group w0 s0; adding workload B's
// CoS2 to the same group (slot 24 of an hourly calendar is slot-of-day 0
// again) leaves only the CoS1 peak binding.
TEST(RequiredCapacityWorkloadSet, AddingAWorkloadCanLowerIt) {
  const Calendar cal(1, 60);
  const auto aggregate_of = [&cal](std::size_t workloads, double b_cos2) {
    Aggregate agg;
    agg.calendar = cal;
    agg.cos1.assign(cal.size(), 0.0);
    agg.cos2.assign(cal.size(), 0.0);
    agg.cos1[0] = 10.0;  // A
    agg.cos2[0] = 1.0;   // A
    agg.cos2[24] = b_cos2;  // B
    agg.workloads = workloads;
    agg.sum_peak_cos1 = 10.0;
    agg.peak_cos1 = 10.0;
    agg.peak_total = std::max(11.0, b_cos2);
    return agg;
  };
  const Aggregate a = aggregate_of(1, 0.0);
  const Aggregate a_and_b = aggregate_of(2, 9.0);
  const qos::CosCommitment cos2{0.9, 60.0};

  const RequiredCapacity alone = required_capacity(a, 16.0, cos2);
  ASSERT_TRUE(alone.fits);
  EXPECT_EQ(alone.capacity, 10.90625);
  EXPECT_EQ(to_string(alone.binding), "theta w0 s0");

  const RequiredCapacity both = required_capacity(a_and_b, 16.0, cos2);
  ASSERT_TRUE(both.fits);
  EXPECT_EQ(both.capacity, 10.0);
  EXPECT_EQ(to_string(both.binding), "cos1-peak");

  // The replay agrees: at 10 CPUs A alone fails theta, A with B passes.
  const Evaluation a_at_10 = evaluate(a, 10.0, cos2);
  EXPECT_EQ(a_at_10.theta, 0.0);
  EXPECT_FALSE(a_at_10.satisfies(cos2));
  const Evaluation both_at_10 = evaluate(a_and_b, 10.0, cos2);
  EXPECT_EQ(both_at_10.theta, 0.9);
  EXPECT_TRUE(both_at_10.satisfies(cos2));
}

}  // namespace
}  // namespace ropus::sim
