// Serialization round-trips for the SLO kernel's streaming accumulators —
// the substrate of the serve daemon's checkpoints: a state captured
// mid-stream and restored into a fresh accumulator must continue exactly
// as the uninterrupted original would.
#include "slo/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"

namespace ropus::slo {
namespace {

Band case_study_band() {
  Band band;
  band.u_high = 0.66;
  band.u_degr = 0.9;
  band.m_percent = 97.0;
  band.t_degr_minutes = 30.0;
  return band;
}

TEST(ClassifyBand, MatchesAccumulatorArithmetic) {
  const Band band = case_study_band();
  EXPECT_EQ(classify_band(0.0, 10.0, band), BandClass::kIdle);
  EXPECT_EQ(classify_band(6.0, 10.0, band), BandClass::kAcceptable);
  EXPECT_EQ(classify_band(8.0, 10.0, band), BandClass::kDegraded);
  EXPECT_EQ(classify_band(9.5, 10.0, band), BandClass::kViolating);
  // Demand with no grant at all violates.
  EXPECT_EQ(classify_band(1.0, 0.0, band), BandClass::kViolating);
  // Exactly at the threshold stays on the lenient side (kRelEps slack).
  EXPECT_EQ(classify_band(6.6, 10.0, band), BandClass::kAcceptable);
  EXPECT_EQ(classify_band(9.0, 10.0, band), BandClass::kDegraded);
}

TEST(BandAccumulatorState, MidStreamRoundTripContinuesIdentically) {
  const Band band = case_study_band();
  // A stream that exercises idle, acceptable, degraded runs and a
  // fallback-attributed violation.
  const std::vector<double> demand = {0.0, 5.0, 8.0, 8.5, 9.9, 0.0,
                                      7.0, 8.1, 8.2, 8.3, 5.0, 9.8};
  const std::vector<bool> fallback = {false, false, false, true, false, false,
                                      false, false, true,  false, false, false};
  const double grant = 10.0;

  BandAccumulator uninterrupted(5.0);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    uninterrupted.observe(demand[i], grant, band, fallback[i]);
  }

  // Checkpoint after slot 4 — inside a degraded run, so `run` matters.
  BandAccumulator first(5.0);
  for (std::size_t i = 0; i < 5; ++i) {
    first.observe(demand[i], grant, band, fallback[i]);
  }
  const BandAccumulator::State snapshot = first.state();
  EXPECT_GT(snapshot.run, 0u);

  BandAccumulator resumed(5.0);
  resumed.restore(snapshot);
  for (std::size_t i = 5; i < demand.size(); ++i) {
    resumed.observe(demand[i], grant, band, fallback[i]);
  }

  const BandCounts& a = uninterrupted.counts();
  const BandCounts& b = resumed.counts();
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.acceptable, b.acceptable);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_EQ(a.degraded_telemetry, b.degraded_telemetry);
  EXPECT_EQ(a.violating_telemetry, b.violating_telemetry);
  EXPECT_EQ(a.longest_degraded_minutes, b.longest_degraded_minutes);
  EXPECT_EQ(uninterrupted.current_run(), resumed.current_run());
  EXPECT_EQ(uninterrupted.longest_run(), resumed.longest_run());
}

TEST(ThetaAccumulatorState, RawSumsRoundTrip) {
  ThetaAccumulator original(4);
  original.add(0, 10.0, 9.0);
  original.add(1, 5.0, 5.0);
  original.add(4 * 7 + 2, 8.0, 4.0);  // second week's group

  ThetaAccumulator restored(4);
  restored.restore(original.requested_raw(), original.satisfied_raw());
  EXPECT_EQ(restored.groups(), original.groups());
  EXPECT_EQ(restored.theta(), original.theta());

  // Resuming the stream on both produces identical theta — bit for bit.
  original.add(3, 2.0, 1.0);
  restored.add(3, 2.0, 1.0);
  EXPECT_EQ(restored.theta(), original.theta());
  EXPECT_EQ(restored.worst().group, original.worst().group);
}

TEST(ThetaAccumulatorState, MisalignedSpansThrow) {
  ThetaAccumulator acc(4);
  const std::vector<double> requested = {1.0, 2.0};
  const std::vector<double> satisfied = {1.0};
  EXPECT_THROW(acc.restore(requested, satisfied), Error);
}

TEST(DeferralQueueState, RoundTripWithExactTotal) {
  DeferralQueue original(6);
  original.defer(0, 3.0);
  original.defer(1, 2.0);
  original.drain(1.5);  // partially serves the oldest entry

  DeferralQueue restored(6);
  restored.restore(original.entries(), original.total());
  EXPECT_EQ(restored.total(), original.total());
  EXPECT_EQ(restored.overdue(7), original.overdue(7));

  // Identical subsequent traffic must keep the two in lockstep, including
  // the exact floating-point totals a checkpoint must reproduce.
  original.defer(2, 0.75);
  restored.defer(2, 0.75);
  original.drain(2.25);
  restored.drain(2.25);
  EXPECT_EQ(restored.total(), original.total());
  EXPECT_EQ(restored.empty(), original.empty());
  EXPECT_EQ(restored.entries().size(), original.entries().size());
}

TEST(DeferralQueueState, DrainResidueSurvivesExactRestore) {
  // drain() retires entries whose remainder falls below kCapacityEps
  // without subtracting that residue from total(): the running total
  // legitimately drifts ULPs above the sum of remainders. An exact restore
  // must carry the drifted total, not recompute it.
  DeferralQueue q(4);
  for (std::size_t i = 0; i < 50; ++i) {
    q.defer(i, 0.1 + 1e-3 * static_cast<double>(i));
    q.drain(0.1);
  }
  double sum = 0.0;
  for (const DeferralQueue::Entry& e : q.entries()) sum += e.remaining;

  DeferralQueue exact(4);
  exact.restore(q.entries(), q.total());
  EXPECT_EQ(exact.total(), q.total());

  DeferralQueue recomputed(4);
  recomputed.restore(q.entries(), sum);
  EXPECT_EQ(recomputed.total(), sum);
}

TEST(DeferralQueueState, RestoreEmptyClearsState) {
  DeferralQueue q(4);
  q.defer(0, 5.0);
  q.restore({}, 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total(), 0.0);
  EXPECT_FALSE(q.overdue(100));
}

}  // namespace
}  // namespace ropus::slo
