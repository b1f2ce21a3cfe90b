// The exact capacity floor (docs/algorithms.md §5) against the definition of
// the required capacity: the smallest grid candidate a replay accepts, found
// by scanning every candidate from the CoS1 peak up. Randomized aggregates
// far from the case study — on- and off-grid values, 1- and 3-week
// calendars at 3, 9 and 288 slots per day, deadlines of 0 and 1 slots and
// past the end of the trace, zero CoS2, single spikes, theta from 0.05 to 1,
// grid and non-grid limits — must give the same bits. A grid answer costs
// no replay, and the limit at most one. On-grid edge cases (deficits of one
// grid unit, a busy period spanning four weeks, sums near grid::kSumLimit)
// must match the scan too; the one off-grid case where the floor and the
// replay's epsilon slack disagree is pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "slo/kernel.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

std::uint64_t replays() {
  return obs::counter("sim.evaluate.calls").value();
}

/// The required capacity by definition: the first candidate, in ascending
/// order, that a replay accepts.
RequiredCapacity linear_scan(const Aggregate& agg, double limit,
                             const qos::CosCommitment& cos2) {
  RequiredCapacity rc;
  if (agg.empty()) {
    rc.fits = true;
    return rc;
  }
  if (agg.sum_peak_cos1 > limit + slo::kCapacityEps) return rc;
  constexpr double step = kCapacityStep;
  const auto k_lo = static_cast<std::int64_t>(std::ceil(agg.peak_cos1 / step));
  const auto k_hi = static_cast<std::int64_t>(std::floor(limit / step));
  std::vector<double> candidates;
  for (std::int64_t k = k_lo; k <= k_hi; ++k) {
    candidates.push_back(static_cast<double>(k) * step);
  }
  if (k_lo > k_hi || limit > static_cast<double>(k_hi) * step) {
    candidates.push_back(limit);
  }
  for (const double c : candidates) {
    const Evaluation ev = evaluate(agg, c, cos2);
    if (ev.satisfies(cos2)) {
      rc.fits = true;
      rc.capacity = c;
      return rc;
    }
  }
  return rc;
}

enum class Shape { kBursty, kZeroCos2, kSingleSpike, kFlat };

struct Case {
  Aggregate agg;
  double limit = 0.0;
  qos::CosCommitment cos2;
  std::string what;
};

Case random_case(Rng& rng) {
  Case c;
  const std::size_t weeks = rng.bernoulli(0.5) ? 1 : 3;
  // 3, 9 and 288 slots per day; the long days are the rarer (and slower) draw.
  const double pick = rng.uniform();
  const std::size_t minutes = pick < 0.45 ? 480 : pick < 0.9 ? 160 : 5;
  c.agg.calendar = Calendar(weeks, minutes);
  const std::size_t n = c.agg.calendar.size();
  const auto shape = static_cast<Shape>(rng.uniform_index(4));
  const bool on_grid = rng.bernoulli(0.5);
  const auto value = [&](double lo, double hi) {
    const double v = rng.uniform(lo, hi);
    return on_grid ? grid::snap(v) : v;
  };

  c.agg.cos1.assign(n, 0.0);
  c.agg.cos2.assign(n, 0.0);
  switch (shape) {
    case Shape::kBursty:
      for (std::size_t i = 0; i < n; ++i) {
        c.agg.cos1[i] = value(0.0, 2.0);
        c.agg.cos2[i] = value(0.0, 4.0);
        if (rng.bernoulli(0.05)) c.agg.cos2[i] += value(0.0, 12.0);
      }
      break;
    case Shape::kZeroCos2:
      for (std::size_t i = 0; i < n; ++i) c.agg.cos1[i] = value(0.0, 6.0);
      break;
    case Shape::kSingleSpike: {
      const double base = rng.bernoulli(0.5) ? value(0.0, 1.0) : 0.0;
      for (std::size_t i = 0; i < n; ++i) c.agg.cos1[i] = base;
      c.agg.cos2[rng.uniform_index(n)] = value(1.0, 20.0);
      break;
    }
    case Shape::kFlat: {
      const double c1 = value(0.0, 2.0);
      const double c2 = value(0.0, 5.0);
      for (std::size_t i = 0; i < n; ++i) {
        c.agg.cos1[i] = c1;
        c.agg.cos2[i] = c2;
      }
      break;
    }
  }
  c.agg.workloads = 1;
  for (std::size_t i = 0; i < n; ++i) {
    c.agg.peak_cos1 = std::max(c.agg.peak_cos1, c.agg.cos1[i]);
    c.agg.peak_total =
        std::max(c.agg.peak_total, c.agg.cos1[i] + c.agg.cos2[i]);
  }
  c.agg.sum_peak_cos1 = c.agg.peak_cos1;

  const double thetas[] = {0.05, 0.6, 0.95, 1.0};
  const double theta = thetas[rng.uniform_index(4)];
  const std::uint64_t d = rng.uniform_index(4);
  const std::size_t deadline_slots =
      d == 0 ? 0 : d == 1 ? 1 : d == 2 ? 1 + rng.uniform_index(12) : n + 1;
  c.cos2 = qos::CosCommitment{
      theta, static_cast<double>(deadline_slots * minutes)};

  // Limits below the CoS1 peak, inside the search range and above the
  // total peak; half of them on the search grid.
  double limit = rng.uniform(0.8 * c.agg.peak_cos1, c.agg.peak_total + 2.0);
  if (rng.bernoulli(0.5)) {
    limit = std::floor(limit / kCapacityStep) * kCapacityStep;
  }
  c.limit = std::max(0.0, limit);
  c.what = "weeks=" + std::to_string(weeks) +
           " slots/day=" + std::to_string(c.agg.calendar.slots_per_day()) +
           " shape=" + std::to_string(static_cast<int>(shape)) +
           " on_grid=" + std::to_string(on_grid) +
           " theta=" + std::to_string(theta) +
           " deadline_slots=" + std::to_string(deadline_slots) +
           " limit=" + std::to_string(c.limit);
  return c;
}

void expect_same_bits(const RequiredCapacity& a, const RequiredCapacity& b,
                      const std::string& what) {
  ASSERT_EQ(a.fits, b.fits) << what;
  ASSERT_EQ(a.capacity, b.capacity) << what;  // bit compare, not NEAR
}

/// The search against the scan, and its replay count: none for a grid
/// answer, at most one (an off-grid limit) otherwise. Returns the search's
/// answer.
RequiredCapacity expect_matches_scan(const Aggregate& agg, double limit,
                                     const qos::CosCommitment& cos2,
                                     const std::string& what) {
  const std::uint64_t before = replays();
  const RequiredCapacity rc = required_capacity(agg, limit, cos2);
  const std::uint64_t cost = replays() - before;
  expect_same_bits(rc, linear_scan(agg, limit, cos2), what);
  if (rc.binding.kind == Binding::Kind::kLimit) {
    EXPECT_LE(cost, 1u) << what;
  } else {
    EXPECT_EQ(cost, 0u) << what;
  }
  return rc;
}

TEST(CapacityFloor, RequiredCapacityMatchesLinearScanOracle) {
  Rng rng(2006);
  std::size_t deadline_bound = 0;
  std::size_t theta_bound = 0;
  for (int i = 0; i < 600; ++i) {
    const Case c = random_case(rng);
    const RequiredCapacity rc =
        expect_matches_scan(c.agg, c.limit, c.cos2, c.what);
    if (HasFatalFailure()) return;
    EXPECT_NE(rc.binding.kind, Binding::Kind::kNone)
        << "a non-empty aggregate named no binding: " << c.what;
    deadline_bound += rc.binding.kind == Binding::Kind::kDeadline ? 1 : 0;
    theta_bound += rc.binding.kind == Binding::Kind::kTheta ? 1 : 0;
  }
  // The sweep exercises both floors, not just the CoS1 peak.
  EXPECT_GT(deadline_bound, 20u);
  EXPECT_GT(theta_bound, 20u);
}

TEST(CapacityFloor, ThetaFloorIsTheReplaysThetaPredicate) {
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const Case c = random_case(rng);
    constexpr double step = kCapacityStep;
    const auto k_lo =
        static_cast<std::int64_t>(std::ceil(c.agg.peak_cos1 / step));
    const auto k_hi = static_cast<std::int64_t>(std::floor(c.limit / step));
    if (k_lo > k_hi) continue;
    const slo::GridFloor floor =
        slo::theta_floor(c.agg.cos1, c.agg.cos2,
                         c.agg.calendar.slots_per_day(), c.cos2.theta, step,
                         k_lo, k_hi);
    const auto theta_holds = [&](std::int64_t k) {
      const Evaluation ev =
          evaluate(c.agg, static_cast<double>(k) * step, c.cos2);
      EXPECT_TRUE(ev.cos1_satisfied) << c.what;
      return ev.theta >= c.cos2.theta;
    };
    ASSERT_GE(floor.k, k_lo) << c.what;
    ASSERT_LE(floor.k, k_hi + 1) << c.what;
    EXPECT_EQ(floor.raised, floor.k > k_lo) << c.what;
    if (floor.k <= k_hi) {
      EXPECT_TRUE(theta_holds(floor.k)) << c.what;
    }
    if (floor.k > k_lo) {
      EXPECT_FALSE(theta_holds(floor.k - 1)) << c.what;
    }
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// One case per binding constraint.

Aggregate series(const Calendar& cal, std::vector<double> cos1,
                 std::vector<double> cos2) {
  Aggregate agg;
  agg.calendar = cal;
  cos1.resize(cal.size(), 0.0);
  cos2.resize(cal.size(), 0.0);
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

TEST(CapacityFloor, BindingCos1Peak) {
  // CoS2 fits beside CoS1 wherever CoS1 peaks, so the peak sets the answer.
  std::vector<double> cos1(21, 1.0);
  cos1[4] = 3.0;
  std::vector<double> cos2(21, 1.0);
  cos2[4] = 0.0;
  const Aggregate agg = series(Calendar(1, 480), cos1, cos2);
  const std::uint64_t before = replays();
  const RequiredCapacity rc =
      required_capacity(agg, 16.0, qos::CosCommitment{0.6, 0.0});
  EXPECT_EQ(replays() - before, 0u);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 3.0);
  EXPECT_EQ(rc.binding.kind, Binding::Kind::kCos1Peak);
  EXPECT_EQ(to_string(rc.binding), "cos1-peak");
}

TEST(CapacityFloor, BindingThetaNamesItsGroup) {
  // 3 slots a day; slot 1 of every day asks 4 CPUs of CoS2 and nothing
  // else is asked, so theta 0.5 needs 2 CPUs, set by group (week 0, slot 1).
  std::vector<double> cos2(21, 0.0);
  for (std::size_t day = 0; day < 7; ++day) cos2[day * 3 + 1] = 4.0;
  const Aggregate agg = series(Calendar(1, 480), {}, cos2);
  const qos::CosCommitment commitment{0.5, 7 * 24 * 60.0};
  const std::uint64_t before = replays();
  const RequiredCapacity rc = required_capacity(agg, 16.0, commitment);
  EXPECT_EQ(replays() - before, 0u);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 2.0);
  EXPECT_EQ(rc.binding.kind, Binding::Kind::kTheta);
  EXPECT_EQ(rc.binding.week, 0u);
  EXPECT_EQ(rc.binding.slot, 1u);
  EXPECT_EQ(to_string(rc.binding), "theta w0 s1");
}

TEST(CapacityFloor, BindingDeadlineNamesTheSlotAndItsBacklog) {
  // One 6-CPU CoS2 spike at slot 10 with a one-slot deadline: whatever is
  // deferred must drain in slot 11, so 6 - C <= C and C = 3 with 3 CPUs
  // queued at slot 10. Theta 0.05 alone would need far less.
  std::vector<double> cos2(2016, 0.0);
  cos2[10] = 6.0;
  const Aggregate agg = series(Calendar(1, 5), {}, cos2);
  const qos::CosCommitment commitment{0.05, 5.0};
  const std::uint64_t before = replays();
  const RequiredCapacity rc = required_capacity(agg, 16.0, commitment);
  EXPECT_EQ(replays() - before, 0u);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 3.0);
  EXPECT_EQ(rc.binding.kind, Binding::Kind::kDeadline);
  EXPECT_EQ(rc.binding.slot, 10u);
  EXPECT_EQ(rc.binding.backlog, 3.0);
  EXPECT_EQ(to_string(rc.binding), "deadline t10 b3.00");
  EXPECT_FALSE(evaluate(agg, 3.0 - 0.03125, commitment).satisfies(commitment));
}

TEST(CapacityFloor, BindingLimitWhenNothingFitsOrTheLimitIsTheAnswer) {
  // A (5 + 2^-5)-CPU spike with a one-slot deadline needs 2.5 + 2^-6 CPUs,
  // between two grid points: a 2-CPU server cannot host it...
  std::vector<double> cos2(2016, 0.0);
  cos2[10] = 5.0 + kCapacityStep;
  const Aggregate agg = series(Calendar(1, 5), {}, cos2);
  const qos::CosCommitment commitment{0.05, 5.0};
  const RequiredCapacity none = required_capacity(agg, 2.0, commitment);
  EXPECT_FALSE(none.fits);
  EXPECT_EQ(none.binding.kind, Binding::Kind::kLimit);
  EXPECT_EQ(to_string(none.binding), "limit");

  // ...and a 2.52-CPU server, whose largest grid point 2.5 falls short,
  // hosts it only at its full, off-grid limit.
  const RequiredCapacity at_limit = required_capacity(agg, 2.52, commitment);
  ASSERT_TRUE(at_limit.fits);
  EXPECT_EQ(at_limit.capacity, 2.52);
  EXPECT_EQ(at_limit.binding.kind, Binding::Kind::kLimit);

  const RequiredCapacity empty =
      required_capacity(Aggregate{}, 2.0, commitment);
  EXPECT_EQ(empty.binding.kind, Binding::Kind::kNone);
}

TEST(CapacityFloor, OffGridReplayRecordsNothingAndLeavesTheRecorderActive) {
  // The 2.52-CPU limit of the test above is answered by a replay. Under an
  // active flight recorder that replay appends no record and opens no
  // section, and the process-global pointer is never cleared, so parallel
  // searches may run beside a recording.
  std::vector<double> cos2(2016, 0.0);
  cos2[10] = 5.0 + kCapacityStep;
  const Aggregate agg = series(Calendar(1, 5), {}, cos2);
  const qos::CosCommitment commitment{0.05, 5.0};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ropus_offgrid_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".bin");
  obs::RecorderConfig config;
  config.path = path;
  obs::Recorder recorder(config);
  obs::Recorder::set_active(&recorder);

  const std::uint64_t before = replays();
  const RequiredCapacity at_limit = required_capacity(agg, 2.52, commitment);
  EXPECT_EQ(replays() - before, 1u);  // the off-grid check still counts
  ASSERT_TRUE(at_limit.fits);
  EXPECT_EQ(at_limit.capacity, 2.52);
  EXPECT_EQ(obs::Recorder::active(), &recorder);
  EXPECT_EQ(recorder.section(), 0u);

  // A direct evaluate() of the same limit records its pass in section 1.
  EXPECT_TRUE(evaluate(agg, 2.52, commitment).satisfies(commitment));
  EXPECT_EQ(replays() - before, 2u);
  obs::Recorder::set_active(nullptr);
  recorder.finish();
  const obs::Recording recording = obs::read_recording(path);
  std::filesystem::remove(path);
  ASSERT_EQ(recording.records.size(), agg.calendar.size());
  for (const obs::SlotRecord& r : recording.records) {
    ASSERT_EQ(r.section, 1u);
  }
}

// ---------------------------------------------------------------------------
// On-grid edge cases: the floor must be the replay's predicate bit for bit.

/// Deadlines of 0 slots, 1 slot and past the end of `agg`'s trace.
std::vector<qos::CosCommitment> edge_deadlines(const Aggregate& agg,
                                               double theta) {
  const double minutes =
      static_cast<double>(agg.calendar.minutes_per_sample());
  const double past_end =
      static_cast<double>(agg.calendar.size() + 1) * minutes;
  return {qos::CosCommitment{theta, 0.0},
          qos::CosCommitment{theta, minutes},
          qos::CosCommitment{theta, past_end}};
}

TEST(CapacityFloor, DeficitsOfOneGridUnitMatchTheScan) {
  // CoS1 is 0 or one 2^-20 unit off a capacity grid point, and CoS2 one
  // unit off one, so at grid capacities slots defer or spare exactly 2^-20
  // or 2^-19 CPU — above kCapacityEps, so the replay counts them, as the
  // floor's exact sums do.
  Rng rng(2020);
  constexpr double step = kCapacityStep;
  for (int i = 0; i < 40; ++i) {
    const Calendar cal(1, rng.bernoulli(0.5) ? 480 : 160);
    std::vector<double> cos1(cal.size(), 0.0);
    std::vector<double> cos2(cal.size(), 0.0);
    const auto near_grid = [&](std::uint64_t max_k) {
      const double k = static_cast<double>(rng.uniform_index(max_k));
      const double unit = rng.bernoulli(0.5) ? grid::kStep : -grid::kStep;
      return std::max(0.0, k * step + unit);
    };
    for (std::size_t t = 0; t < cal.size(); ++t) {
      cos1[t] = rng.bernoulli(0.5) ? 0.0 : near_grid(32);
      if (rng.bernoulli(0.4)) cos2[t] = near_grid(64);
    }
    const Aggregate agg = series(cal, cos1, cos2);
    for (const double theta : {0.05, 0.95}) {
      for (const qos::CosCommitment& c : edge_deadlines(agg, theta)) {
        expect_matches_scan(agg, 16.0, c,
                            "case " + std::to_string(i) + " deadline " +
                                std::to_string(c.deadline_minutes));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CapacityFloor, FourWeekBusyPeriodMatchesTheScan) {
  // 4 weeks of 5-minute slots: CoS2 outruns every candidate capacity for
  // the first 4,000 slots and falls away after, so at the answer one busy
  // period spans most of the calendar and its deferrals drain only through
  // a 4,000-slot deadline.
  const Calendar cal(4, 5);
  Rng rng(4);
  std::vector<double> cos1(cal.size(), 1.0);
  std::vector<double> cos2(cal.size(), 0.0);
  for (std::size_t t = 0; t < cal.size(); ++t) {
    cos2[t] = grid::snap(t < 4000 ? rng.uniform(1.5, 2.5)
                                  : rng.uniform(0.0, 0.5));
  }
  const Aggregate agg = series(cal, cos1, cos2);
  const qos::CosCommitment commitment{0.05, 4000 * 5.0};
  const RequiredCapacity rc =
      expect_matches_scan(agg, 16.0, commitment, "4-week busy period");
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.binding.kind, Binding::Kind::kDeadline);
  // The backlog the busy period builds before it starts to drain.
  EXPECT_GT(evaluate(agg, rc.capacity, commitment).max_backlog, 1000.0);
}

TEST(CapacityFloor, SpikesNearTheSumLimitMatchTheScan) {
  // CoS2 spikes of nearly grid::kSumLimit on a 16-CPU server: one alone,
  // and two back to back whose backlog sums past the limit. A tiny theta
  // lets the spike fit when its deadline falls past the trace end.
  const Calendar cal(1, 480);
  const double big = grid::kSumLimit - 1.0;
  const double three_quarters = grid::snap(0.75 * grid::kSumLimit);
  const std::vector<std::vector<double>> spikes = {
      {0.0, 0.0, 0.0, 0.0, big},
      {0.0, 0.0, 0.0, 0.0, three_quarters, three_quarters},
  };
  for (std::size_t i = 0; i < spikes.size(); ++i) {
    const Aggregate agg = series(cal, {}, spikes[i]);
    for (const qos::CosCommitment& c : edge_deadlines(agg, 1e-10)) {
      expect_matches_scan(agg, 16.0, c,
                          "spike " + std::to_string(i) + " deadline " +
                              std::to_string(c.deadline_minutes));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CapacityFloor, OffGridDeficitBelowEpsilonIsNotForgiven) {
  // Off the allocation grid the replay forgives a deficit below
  // kCapacityEps: at 1 CPU it drops slot 4's 5e-10 CPU and passes. The
  // floor is exact and answers the next grid point, with the deadline at
  // slot 4 binding.
  std::vector<double> cos2(21, 0.0);
  cos2[4] = 1.0000000005;
  const Aggregate agg = series(Calendar(1, 480), {}, cos2);
  const qos::CosCommitment commitment{0.05, 0.0};
  EXPECT_TRUE(evaluate(agg, 1.0, commitment).satisfies(commitment));
  const RequiredCapacity rc = required_capacity(agg, 16.0, commitment);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 1.03125);
  EXPECT_EQ(rc.binding.kind, Binding::Kind::kDeadline);
  EXPECT_EQ(rc.binding.slot, 4u);
  EXPECT_EQ(to_string(rc.binding).rfind("deadline t4", 0), 0u);
}

}  // namespace
}  // namespace ropus::sim
