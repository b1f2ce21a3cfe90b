// The required-capacity binary search of Section VI-A.
#include <gtest/gtest.h>

#include <vector>

#include "qos/allocation.h"
#include "sim/simulator.h"
#include "workload/fleet.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

Calendar tiny() { return Calendar(1, 720); }

Aggregate make_aggregate(std::vector<double> cos1, std::vector<double> cos2) {
  Aggregate agg;
  agg.calendar = tiny();
  cos1.resize(agg.calendar.size(), 0.0);
  cos2.resize(agg.calendar.size(), 0.0);
  agg.cos1 = std::move(cos1);
  agg.cos2 = std::move(cos2);
  agg.workloads = 1;
  for (std::size_t i = 0; i < agg.cos1.size(); ++i) {
    agg.peak_cos1 = std::max(agg.peak_cos1, agg.cos1[i]);
    agg.peak_total = std::max(agg.peak_total, agg.cos1[i] + agg.cos2[i]);
  }
  agg.sum_peak_cos1 = agg.peak_cos1;
  return agg;
}

TEST(RequiredCapacity, EmptyAggregateNeedsNothing) {
  Aggregate agg;
  agg.calendar = tiny();
  const RequiredCapacity rc =
      required_capacity(agg, 16.0, qos::CosCommitment{0.9, 720.0});
  EXPECT_TRUE(rc.fits);
  EXPECT_DOUBLE_EQ(rc.capacity, 0.0);
}

TEST(RequiredCapacity, PrecheckRejectsCos1PeakSumOverLimit) {
  Aggregate agg = make_aggregate(std::vector<double>(14, 1.0), {});
  agg.sum_peak_cos1 = 20.0;  // e.g. many workloads with coincident peaks
  const RequiredCapacity rc =
      required_capacity(agg, 16.0, qos::CosCommitment{0.9, 720.0});
  EXPECT_FALSE(rc.fits);
}

TEST(RequiredCapacity, GuaranteedOnlyWorkloadNeedsItsAggregatePeak) {
  std::vector<double> cos1(14, 1.0);
  cos1[5] = 3.0;
  const Aggregate agg = make_aggregate(cos1, {});
  const RequiredCapacity rc =
      required_capacity(agg, 16.0, qos::CosCommitment{0.9, 720.0});
  ASSERT_TRUE(rc.fits);
  EXPECT_NEAR(rc.capacity, 3.0, 1e-9);
  EXPECT_TRUE(evaluate(agg, rc.capacity, qos::CosCommitment{0.9, 720.0})
                  .satisfies(qos::CosCommitment{0.9, 720.0}));
}

TEST(RequiredCapacity, ThetaConstraintSizesCos2) {
  // Constant cos2 = 2 everywhere: theta(L) = min(2, L) / 2 per group, so
  // theta >= 0.8 requires L >= 1.6, and the first grid point at or above
  // it is 52 * 2^-5 = 1.625. (The deferred remainder's deadline extends
  // past the trace horizon, so theta is the binding constraint here;
  // deadline pressure is exercised separately below.)
  const Aggregate agg = make_aggregate({}, std::vector<double>(14, 2.0));
  const qos::CosCommitment loose{0.8, 10080.0};
  const RequiredCapacity rc = required_capacity(agg, 16.0, loose);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 1.625);
}

TEST(RequiredCapacity, DeadlinePressureRaisesCapacity) {
  // A burst early in the trace must drain within the deadline; a shorter
  // deadline forces more capacity than a longer one.
  std::vector<double> cos2(14, 1.0);
  cos2[1] = 6.0;
  const Aggregate agg = make_aggregate({}, cos2);
  const RequiredCapacity slow =
      required_capacity(agg, 16.0, qos::CosCommitment{0.5, 4320.0});
  const RequiredCapacity fast =
      required_capacity(agg, 16.0, qos::CosCommitment{0.5, 720.0});
  ASSERT_TRUE(slow.fits);
  ASSERT_TRUE(fast.fits);
  EXPECT_GT(fast.capacity, slow.capacity);
}

TEST(RequiredCapacity, OneOffBurstCanRideTheDeadline) {
  // cos2 = 1 except a single 4-CPU observation. With theta = 0.5 and a
  // generous deadline, capacity ~1 suffices: the burst defers and drains.
  std::vector<double> cos2(14, 1.0);
  cos2[3] = 4.0;
  const Aggregate agg = make_aggregate({}, cos2);
  const qos::CosCommitment c{0.5, 10080.0};
  const RequiredCapacity rc = required_capacity(agg, 16.0, c);
  ASSERT_TRUE(rc.fits);
  EXPECT_LT(rc.capacity, 2.0);
  // Tightening theta to 0.95 forces capacity toward the burst.
  const RequiredCapacity tight =
      required_capacity(agg, 16.0, qos::CosCommitment{0.95, 10080.0});
  ASSERT_TRUE(tight.fits);
  EXPECT_GT(tight.capacity, rc.capacity);
}

TEST(RequiredCapacity, ResultSatisfiesCommitmentOnReEvaluation) {
  const auto traces = workload::case_study_traces(Calendar(1, 5), 3);
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  const qos::CosCommitment cos2{0.9, 60.0};
  // Pack the first 4 workloads on one 16-way server.
  std::vector<qos::AllocationTrace> allocs;
  for (std::size_t i = 0; i < 4; ++i) {
    allocs.emplace_back(traces[i], qos::translate(traces[i], req, cos2));
  }
  std::vector<const qos::AllocationTrace*> ptrs;
  for (const auto& a : allocs) ptrs.push_back(&a);
  const Aggregate agg = aggregate_workloads(ptrs, traces[0].calendar());
  const RequiredCapacity rc = required_capacity(agg, 16.0, cos2);
  ASSERT_TRUE(rc.fits);
  EXPECT_TRUE(evaluate(agg, rc.capacity, cos2).satisfies(cos2));
  // Minimality: a meaningfully smaller capacity must fail.
  if (rc.capacity > agg.peak_cos1 + 0.1) {
    EXPECT_FALSE(evaluate(agg, rc.capacity - 0.1, cos2).satisfies(cos2));
  }
  // Sharing: the required capacity is below the sum of peak allocations.
  double sum_peaks = 0.0;
  for (const auto& a : allocs) sum_peaks += a.peak_allocation();
  EXPECT_LT(rc.capacity, sum_peaks);
}

TEST(RequiredCapacity, InfeasibleWithinLimitReported) {
  // Demand needs ~2 CPUs guaranteed; limit is 1.
  const Aggregate agg = make_aggregate(std::vector<double>(14, 2.0), {});
  const RequiredCapacity rc =
      required_capacity(agg, 1.0, qos::CosCommitment{0.9, 720.0});
  EXPECT_FALSE(rc.fits);
}

}  // namespace
}  // namespace ropus::sim
