// Branch-and-bound admission against the exhaustive scan it replaced.
//
// The oracle probes every server at its own capacity and keeps the first
// strictly larger headroom, so ties go to the lower server index.
// place_candidate probes in bound order, stops early and caps its later
// searches; its decision, host and the bits of its headroom and score must
// be the oracle's on seeded random pools. The pools have heterogeneous
// capacities (some off the search grid), all-CoS2 fleets and fleets that
// carry CoS1, 1- and 2-week calendars at 1, 3 and 288 slots per day,
// servers the §VI-A precheck refuses, empty servers and exact headroom
// ties. The engine's two new answers are pinned here too: probe_bound is
// never above the probe's capacity and is +inf only where the probe does
// not fit, and a probe capped at a grid point answers as the uncapped
// probe whenever that answer is within the cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "serve/admission.h"
#include "sim/incremental.h"

namespace ropus::serve {
namespace {

using sim::IncrementalEvaluator;

/// place_candidate as it was: every server probed at its own capacity,
/// best-fit by headroom with a strict > so ties keep the lower index.
AdmissionOutcome exhaustive(IncrementalEvaluator& engine,
                            std::size_t candidate_id, double candidate_peak,
                            double revenue_weight,
                            const AdmissionPolicy& policy) {
  AdmissionOutcome best;
  bool any_fit = false;
  for (std::size_t s = 0; s < engine.server_count(); ++s) {
    const sim::RequiredCapacity rc = engine.probe(s, candidate_id).cpu;
    if (!rc.fits) continue;
    const double cpus = engine.server_cpus(s);
    const double headroom = cpus > 0.0 ? (cpus - rc.capacity) / cpus : 0.0;
    if (!any_fit || headroom > best.headroom) {
      any_fit = true;
      best.host = s;
      best.headroom = headroom;
    }
  }
  if (!any_fit) {
    best.decision = AdmissionDecision::kRejected;
    best.reason = "no server can hold the workload under its commitment";
    return best;
  }
  const double revenue =
      policy.revenue_per_cpu * revenue_weight * candidate_peak;
  const double risk = std::clamp(
      (policy.headroom_margin - best.headroom) / policy.headroom_margin, 0.0,
      1.0);
  best.score = revenue - policy.penalty_per_cpu * candidate_peak * risk;
  if (best.score < 0.0) {
    best.decision = AdmissionDecision::kRejected;
    best.reason = "expected penalty exceeds revenue at the available headroom";
    return best;
  }
  best.decision = AdmissionDecision::kAccepted;
  return best;
}

/// An allocation of `demand` with the CoS1 share `cos1_share` of its peak,
/// built straight from a translation: with U_low = 0.5 each value is twice
/// its demand, split at cos1_share * peak.
qos::AllocationTrace allocation(const trace::Calendar& cal,
                                std::vector<double> demand,
                                double cos1_share) {
  qos::Translation tr;
  tr.requirement.u_low = 0.5;
  tr.breakpoint_p = cos1_share;
  tr.d_new_max = *std::ranges::max_element(demand);
  return qos::AllocationTrace(trace::DemandTrace("w", cal, std::move(demand)),
                              tr);
}

/// A random pool: servers of mixed capacities, some hosting workloads,
/// some empty, and the unhosted rest as candidates.
struct Pool {
  trace::Calendar calendar{1, 5};
  qos::CosCommitment commitment;
  std::vector<double> cpus;
  std::vector<qos::AllocationTrace> allocs;
  std::vector<std::size_t> host;  // per workload; npos when a candidate
  bool carries_cos1 = false;
  std::string what;

  IncrementalEvaluator engine() const {
    IncrementalEvaluator eng(calendar, commitment, cpus);
    for (std::size_t id = 0; id < allocs.size(); ++id) {
      eng.register_workload(id, allocs[id]);
      if (host[id] != IncrementalEvaluator::npos) eng.add(id, host[id]);
    }
    return eng;
  }
};

Pool random_pool(Rng& rng) {
  Pool p;
  const std::size_t spd[] = {1, 3, 288};
  const std::size_t slots_per_day = spd[rng.uniform_index(3)];
  const std::size_t weeks = 1 + rng.uniform_index(2);
  p.calendar = trace::Calendar(weeks, 1440 / slots_per_day);
  const double thetas[] = {0.6, 0.95, 1.0};
  const double deadlines[] = {0.0, 60.0, 1440.0};
  p.commitment = {thetas[rng.uniform_index(3)],
                  deadlines[rng.uniform_index(3)]};
  // 12.3, 7.77 and 3.3 CPUs lie off the search grid; 1.5 CPUs is below
  // most CoS1 peaks, so the precheck refuses it.
  const double capacities[] = {16.0, 16.0, 12.3, 24.0, 7.77, 3.3, 1.5, 8.0};
  const std::size_t servers = 1 + rng.uniform_index(7);
  for (std::size_t s = 0; s < servers; ++s) {
    p.cpus.push_back(capacities[rng.uniform_index(8)]);
  }
  p.carries_cos1 = rng.bernoulli(0.5);
  const std::size_t n = p.calendar.size();
  const std::size_t count = 4 + rng.uniform_index(9);
  for (std::size_t id = 0; id < count; ++id) {
    std::vector<double> demand(n);
    const double scale = rng.uniform(0.3, 2.5);
    if (rng.bernoulli(0.15)) {
      // Flat demand meets the group bound nearly exactly.
      std::ranges::fill(demand, grid::snap(scale));
    } else {
      for (double& d : demand) {
        d = grid::snap(rng.bernoulli(0.08) ? rng.uniform(1.0, 4.0) * scale
                                           : rng.uniform(0.0, 1.0) * scale);
      }
    }
    p.allocs.push_back(allocation(
        p.calendar, std::move(demand),
        p.carries_cos1 ? rng.uniform(0.1, 0.6) : 0.0));
    p.host.push_back(rng.bernoulli(0.55) ? rng.uniform_index(servers)
                                         : IncrementalEvaluator::npos);
  }
  p.what = "weeks=" + std::to_string(weeks) +
           " slots/day=" + std::to_string(slots_per_day) +
           " servers=" + std::to_string(servers) +
           " workloads=" + std::to_string(count) +
           " cos1=" + std::to_string(p.carries_cos1) +
           " theta=" + std::to_string(p.commitment.theta) +
           " deadline=" + std::to_string(p.commitment.deadline_minutes);
  return p;
}

void expect_same_outcome(const AdmissionOutcome& got,
                         const AdmissionOutcome& want,
                         const std::string& what) {
  ASSERT_EQ(got.decision, want.decision) << what;
  ASSERT_EQ(got.host, want.host) << what;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.headroom),
            std::bit_cast<std::uint64_t>(want.headroom))
      << what << " headroom " << got.headroom << " vs " << want.headroom;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.score),
            std::bit_cast<std::uint64_t>(want.score))
      << what << " score " << got.score << " vs " << want.score;
  ASSERT_EQ(got.reason, want.reason) << what;
}

TEST(AdmissionBound, MatchesTheExhaustiveScanOnRandomPools) {
  Rng rng(0xADB0);
  const AdmissionPolicy policy;
  std::size_t decisions = 0;
  std::size_t ties = 0;         // a later server tied the winner exactly
  std::size_t refused = 0;      // a server the bound ruled out
  std::size_t rejected = 0;     // no server fit
  std::size_t cos1_pools = 0;
  std::uint64_t pruned_probes = 0;
  std::uint64_t scan_probes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Pool p = random_pool(rng);
    IncrementalEvaluator eng = p.engine();
    cos1_pools += p.carries_cos1 ? 1 : 0;
    for (std::size_t id = 0; id < p.allocs.size(); ++id) {
      if (p.host[id] != IncrementalEvaluator::npos) continue;
      const std::string what = p.what + " candidate " + std::to_string(id);
      const double peak = p.allocs[id].peak_allocation();
      const double weight = rng.uniform(0.2, 2.0);
      std::uint64_t before = eng.stats().delta_probes;
      const AdmissionOutcome got =
          place_candidate(eng, id, peak, weight, policy);
      pruned_probes += eng.stats().delta_probes - before;
      before = eng.stats().delta_probes;
      const AdmissionOutcome want = exhaustive(eng, id, peak, weight, policy);
      scan_probes += eng.stats().delta_probes - before;
      expect_same_outcome(got, want, what);
      if (HasFatalFailure()) return;
      decisions += 1;
      if (want.reason.starts_with("no server")) rejected += 1;
      // Tally what the pool exercised.
      for (std::size_t s = 0; s < eng.server_count(); ++s) {
        if (std::isinf(eng.probe_bound(s, id))) refused += 1;
        const sim::RequiredCapacity rc = eng.probe(s, id).cpu;
        if (!rc.fits || s == want.host) continue;
        const double h = (p.cpus[s] - rc.capacity) / p.cpus[s];
        ties += h == want.headroom ? 1 : 0;
      }
    }
  }
  EXPECT_GT(decisions, 500u);
  EXPECT_GT(ties, 20u);
  EXPECT_GT(refused, 100u);
  EXPECT_GT(rejected, 10u);
  EXPECT_GT(cos1_pools, 100u);
  // The bounds prune: fewer probes than the scan.
  EXPECT_LT(pruned_probes, scan_probes);
}

// Server 0 hosts an even week of requests in one slot of the day; the
// candidate asks four times as much in another slot, on one day only. Both
// server 0 and the empty server 1 then need exactly the candidate's own
// capacity, a tie that goes to server 0. But server 0's bound sees its
// larger requested sum and ranks it below server 1, so the tie is found
// out of order. Server 2's hosted requests bound it below that headroom,
// so it is never probed.
TEST(AdmissionBound, TieWonByTheLowerIndexProbedSecond) {
  const trace::Calendar cal(1, 480);  // 3 slots a day
  const qos::CosCommitment commitment{0.5, 1e6};  // the deadline never binds
  std::vector<double> hosted(cal.size(), 0.0);
  std::vector<double> heavy(cal.size(), 0.0);
  for (std::size_t day = 0; day < 7; ++day) {
    hosted[day * 3 + 1] = 1.0;
    heavy[day * 3 + 2] = 5.0;
  }
  std::vector<double> candidate(cal.size(), 0.0);
  candidate[0] = 4.0;
  const qos::AllocationTrace a = allocation(cal, hosted, 0.0);
  const qos::AllocationTrace b = allocation(cal, candidate, 0.0);
  const qos::AllocationTrace c = allocation(cal, heavy, 0.0);
  IncrementalEvaluator eng(cal, commitment, {16.0, 16.0, 16.0});
  eng.register_workload(0, a);
  eng.register_workload(1, b);
  eng.register_workload(2, c);
  eng.add(0, 0);
  eng.add(2, 2);
  EXPECT_GT(eng.probe_bound(0, 1), eng.probe_bound(1, 1));
  EXPECT_GT(eng.probe_bound(2, 1), 4.0);
  const AdmissionPolicy policy;
  const std::uint64_t before = eng.stats().delta_probes;
  const AdmissionOutcome got =
      place_candidate(eng, 1, b.peak_allocation(), 1.0, policy);
  EXPECT_EQ(eng.stats().delta_probes - before, 2u);
  const AdmissionOutcome want =
      exhaustive(eng, 1, b.peak_allocation(), 1.0, policy);
  expect_same_outcome(got, want, "tie");
  EXPECT_EQ(got.host, 0u);
  EXPECT_EQ(got.headroom, 0.75);  // 4 CPUs needed of 16
}

// A bound can be the answer itself: with no CoS2, the CoS1 peak of the
// largest member sets both. Empty server 0 (16 CPUs) needs the candidate's
// 4 CPUs and its bound says so; server 1 (32 CPUs) hosts a twin, needs
// 8 CPUs for the same headroom, and bounds it at 4. Server 1 is probed
// first, so server 0 must be probed on a bound equal to the best headroom
// to win the tie.
TEST(AdmissionBound, TieAtTheBoundItselfIsStillProbed) {
  const trace::Calendar cal(1, 480);
  std::vector<double> demand(cal.size(), 0.0);
  demand[0] = 2.0;
  const qos::AllocationTrace twin = allocation(cal, demand, 1.0);
  const qos::AllocationTrace candidate = allocation(cal, demand, 1.0);
  ASSERT_EQ(candidate.peak_cos1(), 4.0);
  IncrementalEvaluator eng(cal, qos::CosCommitment{0.95, 60.0},
                           {16.0, 32.0});
  eng.register_workload(0, twin);
  eng.register_workload(1, candidate);
  eng.add(0, 1);
  EXPECT_EQ(eng.probe_bound(0, 1), 4.0);
  EXPECT_EQ(eng.probe_bound(1, 1), 4.0);
  const AdmissionPolicy policy;
  const AdmissionOutcome got =
      place_candidate(eng, 1, candidate.peak_allocation(), 1.0, policy);
  const AdmissionOutcome want =
      exhaustive(eng, 1, candidate.peak_allocation(), 1.0, policy);
  expect_same_outcome(got, want, "tie at the bound");
  EXPECT_EQ(got.host, 0u);
  EXPECT_EQ(got.headroom, 0.75);
}

TEST(AdmissionBound, ProbeBoundIsBelowEveryFitAndInfiniteOnlyWhereNoneFits) {
  Rng rng(0xB0B0);
  std::size_t fits = 0;
  std::size_t infinite = 0;
  std::size_t positive = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Pool p = random_pool(rng);
    IncrementalEvaluator eng = p.engine();
    for (std::size_t id = 0; id < p.allocs.size(); ++id) {
      if (p.host[id] != IncrementalEvaluator::npos) continue;
      for (std::size_t s = 0; s < eng.server_count(); ++s) {
        const std::string what = p.what + " candidate " +
                                 std::to_string(id) + " server " +
                                 std::to_string(s);
        const double bound = eng.probe_bound(s, id);
        const sim::RequiredCapacity rc = eng.probe(s, id).cpu;
        if (rc.fits) {
          ASSERT_LE(bound, rc.capacity) << what;
          fits += 1;
          positive += bound > 0.0 ? 1 : 0;
        }
        if (std::isinf(bound)) {
          ASSERT_FALSE(rc.fits) << what;
          infinite += 1;
        }
      }
    }
  }
  EXPECT_GT(fits, 500u);
  EXPECT_GT(infinite, 100u);
  EXPECT_GT(positive, fits / 2);  // the bounds say something
}

TEST(AdmissionBound, CappedProbeAnswersAsUncappedWithinTheCap) {
  Rng rng(0xCA9);
  std::size_t within = 0;
  std::size_t beyond = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Pool p = random_pool(rng);
    IncrementalEvaluator eng = p.engine();
    std::vector<sim::RequiredCapacity> verdicts;
    for (std::size_t s = 0; s < eng.server_count(); ++s) {
      verdicts.push_back(eng.verdict(s).cpu);
    }
    for (std::size_t id = 0; id < p.allocs.size(); ++id) {
      if (p.host[id] != IncrementalEvaluator::npos) continue;
      for (std::size_t s = 0; s < eng.server_count(); ++s) {
        const IncrementalEvaluator::Verdict full = eng.probe(s, id);
        const auto k = static_cast<std::int64_t>(
            std::ceil(full.cpu.capacity / sim::kCapacityStep));
        const std::int64_t caps[] = {
            0, std::max<std::int64_t>(0, k - 1), k, k + 1,
            static_cast<std::int64_t>(rng.uniform_index(800))};
        for (const std::int64_t cap : caps) {
          const std::string what = p.what + " candidate " +
                                   std::to_string(id) + " server " +
                                   std::to_string(s) + " cap " +
                                   std::to_string(cap);
          const IncrementalEvaluator::Verdict capped = eng.probe(s, id, cap);
          if (full.cpu.fits &&
              full.cpu.capacity <=
                  static_cast<double>(cap) * sim::kCapacityStep) {
            within += 1;
            ASSERT_TRUE(capped.cpu.fits) << what;
            ASSERT_EQ(capped.cpu.capacity, full.cpu.capacity) << what;
            ASSERT_EQ(capped.cpu.binding.kind, full.cpu.binding.kind) << what;
            ASSERT_EQ(capped.cpu.binding.week, full.cpu.binding.week) << what;
            ASSERT_EQ(capped.cpu.binding.slot, full.cpu.binding.slot) << what;
            ASSERT_EQ(capped.cpu.binding.backlog, full.cpu.binding.backlog)
                << what;
          } else {
            beyond += 1;
            ASSERT_FALSE(capped.cpu.fits) << what;
          }
          ASSERT_EQ(capped.peaks, full.peaks) << what;
        }
      }
    }
    // Capped probes leave the engine as they found it.
    for (std::size_t s = 0; s < eng.server_count(); ++s) {
      const sim::RequiredCapacity after = eng.verdict(s).cpu;
      ASSERT_EQ(after.fits, verdicts[s].fits) << p.what;
      ASSERT_EQ(after.capacity, verdicts[s].capacity) << p.what;
    }
  }
  EXPECT_GT(within, 500u);
  EXPECT_GT(beyond, 500u);
}

}  // namespace
}  // namespace ropus::serve
