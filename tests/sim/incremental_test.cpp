// The reversible delta-evaluation engine: randomized add/remove/move/probe
// sequences cross-checked BIT FOR BIT against the batch oracle
// (aggregate_workloads + required_capacity), plus a slot-by-slot reference
// replay pinning the simulator's vectorized day path to the sequential
// semantics. These are the equivalence guarantees the placement delta path
// and serve admission rely on (docs/algorithms.md §11).
#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "qos/allocation.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "workload/fleet.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

struct Fixture {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocs;
  qos::CosCommitment cos2{0.6, 60.0};

  explicit Fixture(std::size_t weeks = 1) {
    qos::Requirement req;
    req.u_low = 0.5;
    req.u_high = 0.66;
    req.u_degr = 0.9;
    req.m_percent = 97.0;
    demands = workload::case_study_traces(Calendar::standard(weeks), 2006);
    allocs = qos::build_allocations(demands, req, cos2);
  }

  const Calendar& calendar() const { return demands[0].calendar(); }
};

/// The batch oracle for one hosted set: aggregate in ascending-id order,
/// then the cold search — exactly what the pre-delta code paths did.
RequiredCapacity oracle(const Fixture& f, std::vector<std::size_t> ids,
                        double cpus) {
  std::sort(ids.begin(), ids.end());
  std::vector<const qos::AllocationTrace*> ptrs;
  for (const std::size_t id : ids) ptrs.push_back(&f.allocs[id]);
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  return required_capacity(agg, cpus, f.cos2);
}

void expect_bitwise_equal(const RequiredCapacity& a, const RequiredCapacity& b,
                          const char* what) {
  ASSERT_EQ(a.fits, b.fits) << what;
  ASSERT_EQ(a.capacity, b.capacity) << what;  // bit compare, not NEAR
  ASSERT_EQ(a.at_capacity.cos1_satisfied, b.at_capacity.cos1_satisfied)
      << what;
  ASSERT_EQ(a.at_capacity.theta, b.at_capacity.theta) << what;
  ASSERT_EQ(a.at_capacity.deadline_met, b.at_capacity.deadline_met) << what;
  ASSERT_EQ(a.at_capacity.max_backlog, b.at_capacity.max_backlog) << what;
}

// ---------------------------------------------------------------------------
// Randomized engine-vs-oracle equivalence.

TEST(IncrementalEvaluator, RandomizedMovesMatchBatchOracleBitForBit) {
  const Fixture f;
  // A deliberately stressful pool: a tight server where CoS1 peak sums
  // overflow the limit (precheck unfit), mid-size servers where theta and
  // the deferral deadline bind, and one roomy server.
  const std::vector<double> cpus = {6.0, 16.0, 16.0, 24.0, 40.0, 96.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  for (std::size_t id = 0; id < f.allocs.size(); ++id) {
    eng.register_workload(id, f.allocs[id].cos1(), f.allocs[id].cos2());
  }

  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  Rng rng(0xDE17A);
  for (std::size_t step = 0; step < 400; ++step) {
    const std::size_t id = rng.uniform_index(f.allocs.size());
    const std::size_t target = rng.uniform_index(cpus.size());
    const std::size_t host = eng.host_of(id);
    if (host == IncrementalEvaluator::npos) {
      eng.add(id, target);
      hosted[target].push_back(id);
    } else if (rng.uniform_index(3) == 0) {
      eng.remove(id);
      std::erase(hosted[host], id);
    } else {
      eng.move(id, target);
      std::erase(hosted[host], id);
      if (target != host) hosted[target].push_back(id);
      else hosted[target].push_back(id);
    }

    // Every server's verdict matches the batch oracle bit for bit after
    // every mutation (only a couple of servers changed; the rest exercise
    // the verdict cache).
    for (std::size_t s = 0; s < cpus.size(); ++s) {
      expect_bitwise_equal(eng.verdict(s), oracle(f, hosted[s], cpus[s]),
                           "verdict vs oracle");
      if (HasFatalFailure()) return;
    }
  }
  const IncrementalEvaluator::Stats& st = eng.stats();
  EXPECT_GT(st.delta_verdicts + st.sum_rebuilds, 0u);
  EXPECT_EQ(st.batch_fallbacks, 0u);  // real traces are on-grid
  EXPECT_GT(st.verdict_cache_hits, 0u);
}

TEST(IncrementalEvaluator, ProbeMatchesOracleAndRestoresStateExactly) {
  const Fixture f;
  const std::vector<double> cpus = {16.0, 24.0, 10.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  for (std::size_t id = 0; id < f.allocs.size(); ++id) {
    eng.register_workload(id, f.allocs[id].cos1(), f.allocs[id].cos2());
  }
  // Host a baseline set; keep the rest as probe candidates.
  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  for (std::size_t id = 0; id < 12; ++id) {
    eng.add(id, id % cpus.size());
    hosted[id % cpus.size()].push_back(id);
  }
  for (std::size_t s = 0; s < cpus.size(); ++s) (void)eng.verdict(s);

  Rng rng(0xBEEF);
  for (std::size_t step = 0; step < 60; ++step) {
    const std::size_t id = 12 + rng.uniform_index(f.allocs.size() - 12);
    const std::size_t s = rng.uniform_index(cpus.size());
    std::vector<std::size_t> with = hosted[s];
    with.push_back(id);
    expect_bitwise_equal(eng.probe(s, id), oracle(f, with, cpus[s]),
                         "probe vs oracle");
    if (HasFatalFailure()) return;
    // The probe left no trace: the standing verdict still matches.
    expect_bitwise_equal(eng.verdict(s), oracle(f, hosted[s], cpus[s]),
                         "verdict after probe");
    if (HasFatalFailure()) return;
    EXPECT_EQ(eng.host_of(id), IncrementalEvaluator::npos);
  }
}

TEST(IncrementalEvaluator, OffGridWorkloadsFallBackAndStillMatchBatch) {
  const Calendar cal(1, 60);  // 1 week of hourly slots
  const std::size_t n = cal.size();
  // Off-grid by construction: thirds are not representable on any binary
  // grid.
  std::vector<std::vector<double>> c1(3), c2(3);
  for (std::size_t w = 0; w < 3; ++w) {
    c1[w].resize(n);
    c2[w].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      c1[w][i] = (1.0 + static_cast<double>((i + w) % 5)) / 3.0;
      c2[w][i] = (static_cast<double>((i * 7 + w) % 4)) / 3.0;
    }
  }
  const qos::CosCommitment cos2{0.9, 120.0};
  IncrementalEvaluator eng(cal, cos2, {8.0, 8.0});
  for (std::size_t w = 0; w < 3; ++w) eng.register_workload(w, c1[w], c2[w]);
  eng.add(0, 0);
  eng.add(2, 0);
  eng.add(1, 0);

  // The oracle, by hand: ascending-id aggregation of the raw series.
  Aggregate agg;
  agg.calendar = cal;
  agg.cos1.assign(n, 0.0);
  agg.cos2.assign(n, 0.0);
  for (const std::size_t w : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    for (std::size_t i = 0; i < n; ++i) {
      agg.cos1[i] += c1[w][i];
      agg.cos2[i] += c2[w][i];
    }
    double peak = 0.0;
    for (std::size_t i = 0; i < n; ++i) peak = std::max(peak, c1[w][i]);
    agg.sum_peak_cos1 += peak;
    agg.workloads += 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    agg.peak_cos1 = std::max(agg.peak_cos1, agg.cos1[i]);
  }

  expect_bitwise_equal(eng.verdict(0), required_capacity(agg, 8.0, cos2),
                       "off-grid verdict");
  EXPECT_GT(eng.stats().batch_fallbacks, 0u);
  EXPECT_EQ(eng.stats().delta_verdicts, 0u);

  // Removing the off-grid workloads re-arms the delta path (sums rebuilt).
  eng.remove(1);
  eng.remove(2);
  eng.remove(0);
  eng.add(0, 1);  // still off-grid: server 1 falls back too
  (void)eng.verdict(1);
  EXPECT_GE(eng.stats().batch_fallbacks, 2u);
}

// ---------------------------------------------------------------------------
// The vectorized day path against a literal transcription of the sequential
// replay semantics.

Evaluation reference_evaluate(const Aggregate& agg, double capacity,
                              const qos::CosCommitment& cos2) {
  Evaluation ev;
  if (agg.empty()) return ev;
  const Calendar& cal = agg.calendar;
  const std::size_t deadline_slots = cal.observations_in(cos2.deadline_minutes);
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  slo::DeferralQueue backlog(deadline_slots);
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const double s1 = agg.cos1[i];
    const double s2 = agg.cos2[i];
    if (s1 > capacity + slo::kCapacityEps) {
      ev.cos1_satisfied = false;
      ev.theta = 0.0;
      ev.deadline_met = false;
      return ev;
    }
    const double available = std::max(0.0, capacity - s1);
    const double sat2 = std::min(s2, available);
    theta.add(i, s2, sat2);
    backlog.drain(available - sat2);
    backlog.defer(i, s2 - sat2);
    ev.max_backlog = std::max(ev.max_backlog, backlog.total());
    if (backlog.overdue(i)) ev.deadline_met = false;
  }
  if (backlog.overdue_at_end(cal.size())) ev.deadline_met = false;
  ev.theta = theta.theta();
  return ev;
}

TEST(Evaluate, DayChunkedPathMatchesSequentialReplayBitForBit) {
  const Fixture f;
  std::vector<const qos::AllocationTrace*> ptrs;
  for (std::size_t id = 0; id < 12; ++id) ptrs.push_back(&f.allocs[id]);
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  // Sweep capacities across the whole interesting range: CoS1 violations at
  // the bottom, multi-day deferral carry-over in the middle (backlog alive
  // across day boundaries), untroubled vector days at the top.
  Rng rng(0x5EED);
  std::vector<double> capacities = {0.0,
                                    agg.peak_cos1 * 0.5,
                                    agg.peak_cos1,
                                    agg.peak_cos1 + 0.03125,
                                    agg.peak_total * 0.75,
                                    agg.peak_total,
                                    agg.peak_total * 1.5};
  for (std::size_t k = 0; k < 40; ++k) {
    capacities.push_back(agg.peak_cos1 +
                         (agg.peak_total * 1.2 - agg.peak_cos1) *
                             rng.uniform());
  }
  bool saw_deferral = false;
  bool saw_violation = false;
  for (const double c : capacities) {
    const Evaluation fast = evaluate(agg, c, f.cos2);
    const Evaluation ref = reference_evaluate(agg, c, f.cos2);
    ASSERT_EQ(fast.cos1_satisfied, ref.cos1_satisfied) << c;
    ASSERT_EQ(fast.theta, ref.theta) << c;
    ASSERT_EQ(fast.deadline_met, ref.deadline_met) << c;
    ASSERT_EQ(fast.max_backlog, ref.max_backlog) << c;
    saw_deferral = saw_deferral || ref.max_backlog > 0.0;
    saw_violation = saw_violation || !ref.cos1_satisfied;
  }
  EXPECT_TRUE(saw_deferral);  // the sweep really exercised the FIFO
  EXPECT_TRUE(saw_violation);
}

}  // namespace
}  // namespace ropus::sim
