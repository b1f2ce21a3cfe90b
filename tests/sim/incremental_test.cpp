// The reversible delta-evaluation engine: randomized add/remove/move/probe
// sequences cross-checked BIT FOR BIT against the batch oracle
// (aggregate_workloads + required_capacity, plus each attribute's peak),
// the registration refusals that make exactness a precondition, and a
// literal transcription of the sequential replay semantics that evaluate()
// must match bit for bit. These are the equivalence guarantees the
// placement delta path and serve admission rely on (docs/algorithms.md
// §11).
#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/grid.h"
#include "common/rng.h"
#include "qos/allocation.h"
#include "qos/workload_allocations.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "workload/fleet.h"
#include "workload/generator.h"

namespace ropus::sim {
namespace {

using trace::Attribute;
using trace::Calendar;
using Verdict = IncrementalEvaluator::Verdict;

/// The case-study fleet; even ids also carry memory and ids divisible by 3
/// disk, so carriers and non-carriers share servers and no workload carries
/// network.
struct Fixture {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::WorkloadAllocations> workloads;
  qos::CosCommitment cos2{0.6, 60.0};

  explicit Fixture(std::size_t weeks = 1) {
    qos::Requirement req;
    req.u_low = 0.5;
    req.u_high = 0.66;
    req.u_degr = 0.9;
    req.m_percent = 97.0;
    demands = workload::case_study_traces(Calendar::standard(weeks), 2006);
    const std::vector<workload::Profile> profiles =
        workload::case_study_profiles();
    for (std::size_t id = 0; id < demands.size(); ++id) {
      qos::WorkloadAllocations w(qos::AllocationTrace(
          demands[id], qos::translate(demands[id], req, cos2)));
      workload::AttributeTraces attrs =
          workload::generate_attributes(profiles[id], demands[id], 2006);
      if (id % 2 == 0) {
        w.set_attribute(Attribute::kMemoryGb, std::move(attrs.memory));
      }
      if (id % 3 == 0) {
        w.set_attribute(Attribute::kDiskMbps, std::move(attrs.disk));
      }
      workloads.push_back(std::move(w));
    }
  }

  const Calendar& calendar() const { return demands[0].calendar(); }
  std::size_t size() const { return workloads.size(); }
  const qos::AllocationTrace& alloc(std::size_t id) const {
    return workloads[id].cpu();
  }
  void register_all(IncrementalEvaluator& eng) const {
    for (std::size_t id = 0; id < size(); ++id) {
      eng.register_workload(id, workloads[id]);
    }
  }
};

/// The batch oracle for one hosted set: aggregate in ascending-id order,
/// then the cold search — exactly what the pre-delta code paths did — and
/// each attribute's per-slot sum in the same order, then its peak.
Verdict oracle(const Fixture& f, std::vector<std::size_t> ids, double cpus) {
  std::sort(ids.begin(), ids.end());
  std::vector<const qos::AllocationTrace*> ptrs;
  for (const std::size_t id : ids) ptrs.push_back(&f.alloc(id));
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  Verdict out{required_capacity(agg, cpus, f.cos2), {}};
  for (const Attribute a : trace::kAllAttributes) {
    if (a == Attribute::kCpu) continue;
    std::vector<double> total(f.calendar().size(), 0.0);
    for (const std::size_t id : ids) {
      const trace::DemandTrace* t = f.workloads[id].attribute(a);
      if (t == nullptr) continue;
      for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*t)[i];
    }
    double& peak = out.peaks[trace::attribute_index(a)];
    for (const double x : total) peak = std::max(peak, x);
  }
  return out;
}

void expect_bitwise_equal(const Verdict& a, const Verdict& b,
                          const char* what) {
  ASSERT_EQ(a.cpu.fits, b.cpu.fits) << what;
  ASSERT_EQ(a.cpu.capacity, b.cpu.capacity) << what;  // bit compare
  // The binding's slot and backlog come from the floors' pass over the
  // per-slot sums, so they pin the sums, not just the answer.
  ASSERT_EQ(a.cpu.binding.kind, b.cpu.binding.kind) << what;
  ASSERT_EQ(a.cpu.binding.week, b.cpu.binding.week) << what;
  ASSERT_EQ(a.cpu.binding.slot, b.cpu.binding.slot) << what;
  ASSERT_EQ(a.cpu.binding.backlog, b.cpu.binding.backlog) << what;
  for (std::size_t k = 0; k < a.peaks.size(); ++k) {
    ASSERT_EQ(a.peaks[k], b.peaks[k]) << what << " attribute " << k;
  }
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
  f.register_all(eng);

  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  Rng rng(0xDE17A);
  bool saw_memory = false;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::size_t id = rng.uniform_index(f.size());
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
    // every mutation (only a couple of servers changed; the rest re-verdict
    // unchanged sums).
    for (std::size_t s = 0; s < cpus.size(); ++s) {
      const Verdict v = eng.verdict(s);
      expect_bitwise_equal(v, oracle(f, hosted[s], cpus[s]),
                           "verdict vs oracle");
      if (HasFatalFailure()) return;
      saw_memory = saw_memory ||
                   v.peaks[trace::attribute_index(Attribute::kMemoryGb)] > 0.0;
    }
  }
  const IncrementalEvaluator::Stats& st = eng.stats();
  EXPECT_GT(st.delta_verdicts, 0u);
  EXPECT_GT(st.sum_rebuilds, 0u);
  EXPECT_TRUE(saw_memory);  // the attribute columns carried real demand
}

TEST(IncrementalEvaluator, ProbeMatchesOracleAndRestoresStateExactly) {
  const Fixture f;
  const std::vector<double> cpus = {16.0, 24.0, 10.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  f.register_all(eng);
  // Host a baseline set; keep the rest as probe candidates.
  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  for (std::size_t id = 0; id < 12; ++id) {
    eng.add(id, id % cpus.size());
    hosted[id % cpus.size()].push_back(id);
  }
  for (std::size_t s = 0; s < cpus.size(); ++s) (void)eng.verdict(s);

  Rng rng(0xBEEF);
  for (std::size_t step = 0; step < 60; ++step) {
    const std::size_t id = 12 + rng.uniform_index(f.size() - 12);
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

/// An allocation holding exactly `values` (snapped) on one class of
/// service: U_low = 1, nothing capped, and the breakpoint at 1 (all CoS1)
/// or 0 (all CoS2).
qos::AllocationTrace allocation(const Calendar& cal, std::vector<double> values,
                                bool on_cos1 = true) {
  qos::Translation tr;
  tr.requirement.u_low = 1.0;
  tr.breakpoint_p = on_cos1 ? 1.0 : 0.0;
  tr.d_new_max = std::numeric_limits<double>::max();
  return qos::AllocationTrace(trace::DemandTrace("x", cal, std::move(values)),
                              tr);
}

TEST(IncrementalEvaluator, RefusesRegistrationsOutsideTheExactRange) {
  const Fixture f;
  const std::vector<double> cpus = {16.0, 16.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  // A standing pool: six workloads hosted, a seventh registered for probes.
  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  for (std::size_t id = 0; id < 7; ++id) {
    eng.register_workload(id, f.workloads[id]);
    if (id < 6) {
      eng.add(id, id % 2);
      hosted[id % 2].push_back(id);
    }
  }
  const Verdict before0 = eng.verdict(0);
  const Verdict before1 = eng.verdict(1);
  const Verdict probe_before = eng.probe(0, 6);

  const std::size_t n = f.calendar().size();
  const std::vector<double> zeros(n, 0.0);
  // On the grid, one step below the limit: alone it fits, but on top of
  // the standing pool's peaks the total reaches kSumLimit.
  std::vector<double> huge(n, 0.0);
  huge[5] = grid::kSumLimit - grid::kStep;
  // A finite demand whose allocation overflows to +inf when snapped.
  std::vector<double> overflow(n, 0.5);
  overflow[3] = std::numeric_limits<double>::max();
  qos::WorkloadAllocations memory(allocation(f.calendar(), zeros));
  memory.set_attribute(Attribute::kMemoryGb,
                       trace::DemandTrace("m", f.calendar(), huge));

  const auto refused = [&](const auto& alloc, const char* what) {
    EXPECT_THROW(eng.register_workload(7, alloc), InvalidArgument) << what;
    EXPECT_FALSE(eng.registered(7)) << what;
  };
  refused(allocation(f.calendar(), huge), "CoS1 peaks past kSumLimit");
  refused(allocation(f.calendar(), huge, false), "CoS2 peaks past kSumLimit");
  refused(allocation(f.calendar(), overflow), "CoS1 overflowed to +inf");
  refused(allocation(f.calendar(), overflow, false), "CoS2 overflowed to +inf");
  refused(memory, "memory peaks past kSumLimit");
  // A registered id is refused, and its registration stays.
  EXPECT_THROW(eng.register_workload(6, f.workloads[6]), InvalidArgument);
  EXPECT_TRUE(eng.registered(6));

  // Engine state is unchanged: standing verdicts, the probe, and the
  // verdicts after further mutations all match as before.
  expect_bitwise_equal(eng.verdict(0), before0, "verdict 0 after refusals");
  expect_bitwise_equal(eng.verdict(1), before1, "verdict 1 after refusals");
  expect_bitwise_equal(eng.probe(0, 6), probe_before, "probe after refusals");
  eng.add(6, 1);
  hosted[1].push_back(6);
  eng.move(0, 1);
  std::erase(hosted[0], std::size_t{0});
  hosted[1].push_back(0);
  for (std::size_t s = 0; s < cpus.size(); ++s) {
    expect_bitwise_equal(eng.verdict(s), oracle(f, hosted[s], cpus[s]),
                         "verdict after refusals vs oracle");
  }

  // The budget is exact: a lone workload peaking one grid step below
  // kSumLimit registers, a step more does not, and unregistering frees the
  // budget.
  IncrementalEvaluator solo(f.calendar(), f.cos2, {16.0});
  EXPECT_NO_THROW(solo.register_workload(0, allocation(f.calendar(), huge)));
  const qos::AllocationTrace step =
      allocation(f.calendar(), std::vector<double>(n, grid::kStep));
  EXPECT_THROW(solo.register_workload(1, step), InvalidArgument);
  solo.unregister_workload(0);
  EXPECT_NO_THROW(solo.register_workload(1, step));
}

TEST(IncrementalEvaluator, UnregisteringAfterARefusedProbeRestoresTheEngine) {
  // A server so large that its capacity times the calendar length reaches
  // kSumLimit: the capacity search refuses any hosted set on it, and the
  // caller unregisters the candidate (as serve's admission does).
  const Fixture f;
  const double giant =
      grid::kSumLimit / static_cast<double>(f.calendar().size());
  IncrementalEvaluator eng(f.calendar(), f.cos2, {16.0, giant});
  f.register_all(eng);
  for (const std::size_t id : {0u, 1u, 2u}) eng.add(id, 0);
  const Verdict before = eng.verdict(0);
  EXPECT_THROW((void)eng.probe(1, 4), InvalidArgument);
  EXPECT_EQ(eng.host_of(4), IncrementalEvaluator::npos);
  eng.unregister_workload(4);
  EXPECT_FALSE(eng.registered(4));
  expect_bitwise_equal(eng.verdict(0), before, "verdict after the throw");
  expect_bitwise_equal(eng.probe(0, 5), oracle(f, {0, 1, 2, 5}, 16.0),
                       "probe after the throw");
  eng.register_workload(4, f.workloads[4]);
  eng.add(4, 0);
  expect_bitwise_equal(eng.verdict(0), oracle(f, {0, 1, 2, 4}, 16.0),
                       "verdict with the re-registered id");
}

// ---------------------------------------------------------------------------
// evaluate() against a literal transcription of the sequential replay
// semantics: the definition the capacity floor is proven against, so no
// faster replay may drift from it.

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
  for (std::size_t id = 0; id < 12; ++id) ptrs.push_back(&f.alloc(id));
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
