// The capacity floors and the delta engine's flush against frozen copies of
// their straightforward forms, bit for bit.
//
// The oracles below are the floors in their straightforward form: the
// theta floor sums each (week, slot-of-day) group strided over its days,
// and the deadline floor carries its spare window across every slot. The
// shipped floors build each week's group sums over contiguous slots and
// open a window only when a busy period does; every GridFloor field (k,
// raised, where and the bits of backlog) must come out the same on
// randomized on- and off-grid series: spans that are not a whole number of
// weeks, 1, 3 and 288 slots per day, deadlines of 0, 1, n - 1 and >= n
// slots, k_min above the answer and k_max below it, all-CoS2 series
// searched from k_min = 0 (where each week starts at its group bound), and
// busy periods that open and close many times.
//
// The engine cases pin the blocked series flush and the probe: a probe of a
// server with queued ops, a queue exactly at the rebuild threshold and one
// below it, and a probe followed by a verdict, each against an engine built
// afresh from the same hosted set. Their fleets are built as the engine's
// callers build theirs: translated random demand, every third workload
// carrying memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "qos/workload_allocations.h"
#include "sim/incremental.h"
#include "sim/simulator.h"
#include "slo/kernel.h"

namespace ropus {
namespace {

using slo::GridFloor;
using slo::first_passing;
using slo::kDaysPerWeek;
using slo::satisfied_cos2;

// ---------------------------------------------------------------------------
// Oracles: the floors in their straightforward form.

GridFloor strided_theta_floor(std::span<const double> cos1,
                              std::span<const double> cos2,
                              std::size_t slots_per_day, double theta,
                              double step, std::int64_t k_min,
                              std::int64_t k_max) {
  GridFloor floor{k_min};
  const std::size_t n = cos1.size();
  const std::size_t week = kDaysPerWeek * slots_per_day;
  for (std::size_t w = 0; w < n; w += week) {
    const std::size_t end = std::min(n, w + week);
    for (std::size_t first = w; first < std::min(end, w + slots_per_day);
         ++first) {
      double requested = 0.0;
      for (std::size_t i = first; i < end; i += slots_per_day) {
        requested += cos2[i];
      }
      if (!(requested > 0.0)) continue;
      const auto holds = [&](std::int64_t k) {
        const double capacity = static_cast<double>(k) * step;
        double satisfied = 0.0;
        for (std::size_t i = first; i < end; i += slots_per_day) {
          satisfied += satisfied_cos2(capacity, cos1[i], cos2[i]);
        }
        return !(satisfied / requested < theta);
      };
      if (holds(floor.k)) continue;
      floor.k = first_passing(floor.k, k_max, holds);
      floor.raised = true;
      floor.where = (w / week) * slots_per_day + (first - w);
      if (floor.k > k_max) return floor;
    }
  }
  return floor;
}

GridFloor eager_deadline_floor(std::span<const double> cos1,
                               std::span<const double> cos2,
                               std::size_t deadline_slots, double step,
                               std::int64_t k_min, std::int64_t k_max) {
  GridFloor floor{k_min};
  const std::size_t n = cos1.size();
  if (deadline_slots >= n) return floor;
  const std::size_t last = n - 1 - deadline_slots;
  const auto net = [&](std::size_t t, double capacity) {
    const double served = satisfied_cos2(capacity, cos1[t], cos2[t]);
    return (cos2[t] - served) -
           (std::max(0.0, capacity - cos1[t]) - served);
  };
  const auto window_spare = [&](std::size_t j, double capacity) {
    double sum = 0.0;
    for (std::size_t t = j + 1; t <= j + deadline_slots; ++t) {
      sum += std::max(0.0, -net(t, capacity));
    }
    return sum;
  };

  double capacity = static_cast<double>(floor.k) * step;
  double window = window_spare(0, capacity);
  double backlog = 0.0;
  std::size_t start = 0;
  for (std::size_t j = 0; j <= last; ++j) {
    const double net_j = net(j, capacity);
    if (j > 0) {
      window += std::max(0.0, -net(j + deadline_slots, capacity));
      window -= std::max(0.0, -net_j);
    }
    if (backlog <= 0.0) start = j;
    backlog = std::max(0.0, backlog + net_j);
    while (backlog > 0.0 && backlog > window) {
      floor.k = first_passing(floor.k, k_max, [&](std::int64_t k) {
        const double c = static_cast<double>(k) * step;
        double bound = 0.0;
        for (std::size_t t = start; t <= j; ++t) bound += net(t, c);
        return bound <= window_spare(j, c);
      });
      floor.raised = true;
      floor.where = j;
      if (floor.k > k_max) return floor;
      capacity = static_cast<double>(floor.k) * step;
      const std::size_t from = start;
      backlog = 0.0;
      for (std::size_t t = from; t <= j; ++t) {
        if (backlog <= 0.0) start = t;
        backlog = std::max(0.0, backlog + net(t, capacity));
      }
      floor.backlog = backlog;
      window = window_spare(j, capacity);
    }
  }
  return floor;
}

void expect_same_floor(const GridFloor& got, const GridFloor& want,
                       const std::string& what) {
  ASSERT_EQ(got.k, want.k) << what;
  ASSERT_EQ(got.raised, want.raised) << what;
  ASSERT_EQ(got.where, want.where) << what;
  ASSERT_EQ(std::signbit(got.backlog), std::signbit(want.backlog)) << what;
  ASSERT_EQ(got.backlog, want.backlog) << what;  // bit compare, not NEAR
}

// ---------------------------------------------------------------------------
// Randomized series.

enum class Shape { kBursty, kAlternating, kSpikes, kFlat, kZeroCos2 };

struct Series {
  std::vector<double> cos1;
  std::vector<double> cos2;
  std::size_t slots_per_day = 1;
  double peak_cos1 = 0.0;
  std::string what;
};

Series random_series(Rng& rng) {
  Series s;
  const std::size_t spd[] = {1, 3, 288};
  s.slots_per_day = spd[rng.uniform_index(3)];
  const std::size_t week = kDaysPerWeek * s.slots_per_day;
  // Whole weeks, a partial last week, or a partial last day; short spans
  // for the long days keep the oracle cheap.
  const std::size_t weeks = s.slots_per_day == 288 ? 1 + rng.uniform_index(2)
                                                   : 1 + rng.uniform_index(5);
  std::size_t n = weeks * week;
  const std::uint64_t cut = rng.uniform_index(3);
  if (cut == 1) n += 1 + rng.uniform_index(week - 1);
  if (cut == 2) n -= 1 + rng.uniform_index(s.slots_per_day);
  const auto shape = static_cast<Shape>(rng.uniform_index(5));
  const bool on_grid = rng.bernoulli(0.5);
  const auto value = [&](double lo, double hi) {
    const double v = rng.uniform(lo, hi);
    return on_grid ? grid::snap(v) : v;
  };

  s.cos1.assign(n, 0.0);
  s.cos2.assign(n, 0.0);
  switch (shape) {
    case Shape::kBursty:
      for (std::size_t i = 0; i < n; ++i) {
        s.cos1[i] = value(0.0, 2.0);
        s.cos2[i] = value(0.0, 4.0);
        if (rng.bernoulli(0.05)) s.cos2[i] += value(0.0, 12.0);
      }
      break;
    case Shape::kAlternating:
      // Every other slot asks more than the rest can spare beside it, so
      // at the answer busy periods open and close all along the span.
      for (std::size_t i = 0; i < n; ++i) {
        s.cos1[i] = value(0.0, 1.0);
        s.cos2[i] = i % 2 == 0 ? value(2.0, 5.0) : value(0.0, 0.5);
      }
      break;
    case Shape::kSpikes: {
      const double base = rng.bernoulli(0.5) ? value(0.0, 1.0) : 0.0;
      for (std::size_t i = 0; i < n; ++i) s.cos1[i] = base;
      const std::size_t spikes = 1 + rng.uniform_index(6);
      for (std::size_t k = 0; k < spikes; ++k) {
        s.cos2[rng.uniform_index(n)] = value(1.0, 20.0);
      }
      break;
    }
    case Shape::kFlat: {
      const double c1 = value(0.0, 2.0);
      const double c2 = value(0.0, 5.0);
      std::fill(s.cos1.begin(), s.cos1.end(), c1);
      std::fill(s.cos2.begin(), s.cos2.end(), c2);
      break;
    }
    case Shape::kZeroCos2:
      for (std::size_t i = 0; i < n; ++i) s.cos1[i] = value(0.0, 6.0);
      break;
  }
  for (const double v : s.cos1) s.peak_cos1 = std::max(s.peak_cos1, v);
  s.what = "n=" + std::to_string(n) +
           " slots/day=" + std::to_string(s.slots_per_day) +
           " shape=" + std::to_string(static_cast<int>(shape)) +
           " on_grid=" + std::to_string(on_grid);
  return s;
}

/// Deadlines of 0, 1, a few, n - 1 and n slots and past the end.
std::size_t random_deadline(Rng& rng, std::size_t n) {
  switch (rng.uniform_index(6)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return 2 + rng.uniform_index(24);
    case 3:
      return n - 1;
    case 4:
      return n;
    default:
      return n + 1 + rng.uniform_index(5);
  }
}

constexpr double kStep = sim::kCapacityStep;
constexpr std::int64_t kRoomy = 4096;  // 128 CPUs: above every answer here

std::int64_t peak_index(const Series& s) {
  return static_cast<std::int64_t>(std::ceil(s.peak_cos1 / kStep));
}

TEST(FloorDifferential, ThetaFloorMatchesStridedOracle) {
  Rng rng(0x7E7A);
  const double thetas[] = {0.05, 0.6, 0.95, 1.0};
  std::size_t raised = 0;
  for (int i = 0; i < 500; ++i) {
    const Series s = random_series(rng);
    const double theta = thetas[rng.uniform_index(4)];
    const std::int64_t k_min = peak_index(s);
    const std::string what = s.what + " theta=" + std::to_string(theta);
    const GridFloor want = strided_theta_floor(s.cos1, s.cos2,
                                               s.slots_per_day, theta, kStep,
                                               k_min, kRoomy);
    expect_same_floor(slo::theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                       theta, kStep, k_min, kRoomy),
                      want, what);
    if (HasFatalFailure()) return;
    raised += want.raised ? 1 : 0;
    // A starting index above the answer stands; a ceiling below it is
    // reported as k_max + 1, naming the group that overran it.
    expect_same_floor(slo::theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                       theta, kStep, want.k + 3, kRoomy),
                      strided_theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                          theta, kStep, want.k + 3, kRoomy),
                      what + " k_min above");
    if (HasFatalFailure()) return;
    if (want.k > k_min) {
      const std::int64_t k_max = k_min + static_cast<std::int64_t>(
                                             rng.uniform_index(
                                                 static_cast<std::uint64_t>(
                                                     want.k - k_min)));
      const GridFloor capped = strided_theta_floor(
          s.cos1, s.cos2, s.slots_per_day, theta, kStep, k_min, k_max);
      ASSERT_EQ(capped.k, k_max + 1) << what;
      expect_same_floor(slo::theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                         theta, kStep, k_min, k_max),
                        capped, what + " k_max below");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(raised, 100u);  // the groups really lifted the floor
}

// All-CoS2 series searched from k_min = 0, as the serve daemon's profiles
// are: every group with a request fails at the start, so each week starts
// at its group bound (slo::theta_group_bound) instead, whenever that is
// higher. k, raised and where must still be the strided oracle's.
TEST(FloorDifferential, ThetaFloorFromZeroOnAllCos2Series) {
  Rng rng(0xC052);
  const double thetas[] = {0.05, 0.6, 0.95, 1.0};
  std::size_t lifted = 0;
  for (int i = 0; i < 400; ++i) {
    Series s = random_series(rng);
    std::fill(s.cos1.begin(), s.cos1.end(), 0.0);
    const double theta = thetas[rng.uniform_index(4)];
    const std::string what = s.what + " cos1=0 theta=" + std::to_string(theta);
    const GridFloor want = strided_theta_floor(s.cos1, s.cos2,
                                               s.slots_per_day, theta, kStep,
                                               0, kRoomy);
    expect_same_floor(slo::theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                       theta, kStep, 0, kRoomy),
                      want, what);
    if (HasFatalFailure()) return;
    // The first week's bound, as the floor takes it: the largest request
    // over the week's days.
    const std::size_t week = kDaysPerWeek * s.slots_per_day;
    const std::size_t end = std::min(s.cos2.size(), week);
    double most = 0.0;
    for (std::size_t t = 0; t < std::min(end, s.slots_per_day); ++t) {
      double requested = 0.0;
      for (std::size_t j = t; j < end; j += s.slots_per_day) {
        requested += s.cos2[j];
      }
      most = std::max(most, requested);
    }
    if (slo::theta_group_bound(
            most, (end + s.slots_per_day - 1) / s.slots_per_day, theta,
            kStep) > 0) {
      lifted += 1;
    }
    if (want.k > 0) {
      const auto k_max = static_cast<std::int64_t>(
          rng.uniform_index(static_cast<std::uint64_t>(want.k)));
      const GridFloor capped = strided_theta_floor(
          s.cos1, s.cos2, s.slots_per_day, theta, kStep, 0, k_max);
      ASSERT_EQ(capped.k, k_max + 1) << what;
      expect_same_floor(slo::theta_floor(s.cos1, s.cos2, s.slots_per_day,
                                         theta, kStep, 0, k_max),
                        capped, what + " k_max below");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(lifted, 200u);  // most searches really start at the bound
}

TEST(FloorDifferential, DeadlineFloorMatchesEagerWindowOracle) {
  Rng rng(0xDEAD1);
  std::size_t raised = 0;
  std::size_t many_lifts = 0;
  for (int i = 0; i < 600; ++i) {
    const Series s = random_series(rng);
    const std::size_t n = s.cos1.size();
    const std::size_t deadline = random_deadline(rng, n);
    const std::int64_t k_min = peak_index(s);
    const std::string what = s.what + " deadline=" + std::to_string(deadline);
    const GridFloor want =
        eager_deadline_floor(s.cos1, s.cos2, deadline, kStep, k_min, kRoomy);
    expect_same_floor(
        slo::deadline_floor(s.cos1, s.cos2, deadline, kStep, k_min, kRoomy),
        want, what);
    if (HasFatalFailure()) return;
    raised += want.raised ? 1 : 0;
    many_lifts += want.k > k_min + 8 ? 1 : 0;
    expect_same_floor(
        slo::deadline_floor(s.cos1, s.cos2, deadline, kStep, want.k + 3,
                            kRoomy),
        eager_deadline_floor(s.cos1, s.cos2, deadline, kStep, want.k + 3,
                             kRoomy),
        what + " k_min above");
    if (HasFatalFailure()) return;
    if (want.k > k_min) {
      const std::int64_t k_max = k_min + static_cast<std::int64_t>(
                                             rng.uniform_index(
                                                 static_cast<std::uint64_t>(
                                                     want.k - k_min)));
      const GridFloor capped =
          eager_deadline_floor(s.cos1, s.cos2, deadline, kStep, k_min, k_max);
      ASSERT_EQ(capped.k, k_max + 1) << what;
      expect_same_floor(
          slo::deadline_floor(s.cos1, s.cos2, deadline, kStep, k_min, k_max),
          capped, what + " k_max below");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(raised, 100u);
  EXPECT_GT(many_lifts, 50u);
}

TEST(FloorDifferential, BusyPeriodsOpeningAndClosingAllAlongTheSpan) {
  // On-grid demand that at the answer defers in hundreds of separate busy
  // periods, each drained within the deadline, at each deadline from 0 to
  // 40 slots and at capacities from the CoS1 peak up.
  Rng rng(0xB0B);
  const std::size_t n = 2016 + 37;
  for (std::size_t deadline = 0; deadline <= 40; ++deadline) {
    std::vector<double> cos1(n);
    std::vector<double> cos2(n);
    for (std::size_t i = 0; i < n; ++i) {
      cos1[i] = grid::snap(rng.uniform(0.0, 1.0));
      const bool burst = rng.bernoulli(0.3);
      cos2[i] = grid::snap(burst ? rng.uniform(1.0, 3.0)
                                 : rng.uniform(0.0, 0.5));
    }
    double peak = 0.0;
    for (const double v : cos1) peak = std::max(peak, v);
    const auto k_peak =
        static_cast<std::int64_t>(std::ceil(peak / kStep));
    for (const std::int64_t k_min : {k_peak, k_peak + 16, k_peak + 48}) {
      const std::string what = "deadline=" + std::to_string(deadline) +
                               " k_min=" + std::to_string(k_min);
      expect_same_floor(
          slo::deadline_floor(cos1, cos2, deadline, kStep, k_min, kRoomy),
          eager_deadline_floor(cos1, cos2, deadline, kStep, k_min, kRoomy),
          what);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// The delta engine's flush and probe against an engine built afresh.

using sim::IncrementalEvaluator;
using Verdict = IncrementalEvaluator::Verdict;

/// Translated random demand; every third workload carries memory.
struct Fleet {
  trace::Calendar calendar;
  std::vector<qos::WorkloadAllocations> workloads;
  qos::CosCommitment commitment{0.9, 30.0};

  Fleet(const trace::Calendar& cal, std::size_t count, std::uint64_t seed)
      : calendar(cal) {
    // U_low / U_high above theta puts part of each allocation on CoS1.
    qos::Requirement req;
    req.u_low = 0.6;
    req.u_high = 0.64;
    req.u_degr = 0.9;
    req.m_percent = 97.0;
    Rng rng(seed);
    const std::size_t n = cal.size();
    for (std::size_t id = 0; id < count; ++id) {
      std::vector<double> demand(n);
      for (double& d : demand) {
        d = rng.bernoulli(0.1) ? rng.uniform(1.5, 4.0) : rng.uniform(0.2, 1.5);
      }
      // Appended, not `"w" + std::to_string(id)`: GCC 12 at -O3 flags that
      // form's inlined insert with a false -Wrestrict.
      std::string name = "w";
      name += std::to_string(id);
      const trace::DemandTrace t(name, cal, std::move(demand));
      qos::WorkloadAllocations w(
          qos::AllocationTrace(t, qos::translate(t, req, commitment)));
      if (id % 3 == 0) {
        std::vector<double> memory(n);
        for (double& v : memory) v = rng.uniform(0.0, 8.0);
        w.set_attribute(trace::Attribute::kMemoryGb,
                        trace::DemandTrace("m", cal, std::move(memory)));
      }
      workloads.push_back(std::move(w));
    }
  }

  void register_all(IncrementalEvaluator& eng) const {
    for (std::size_t id = 0; id < workloads.size(); ++id) {
      eng.register_workload(id, workloads[id]);
    }
  }

  /// A server's verdict from an engine built afresh for `ids`.
  Verdict fresh(std::vector<std::size_t> ids, double cpus) const {
    IncrementalEvaluator eng(calendar, commitment, {cpus});
    register_all(eng);
    std::sort(ids.begin(), ids.end());
    for (const std::size_t id : ids) eng.add(id, 0);
    return eng.verdict(0);
  }
};

void expect_same_verdict(const Verdict& a, const Verdict& b,
                         const std::string& what) {
  ASSERT_EQ(a.cpu.fits, b.cpu.fits) << what;
  ASSERT_EQ(a.cpu.capacity, b.cpu.capacity) << what;
  ASSERT_EQ(a.cpu.binding.kind, b.cpu.binding.kind) << what;
  ASSERT_EQ(a.cpu.binding.week, b.cpu.binding.week) << what;
  ASSERT_EQ(a.cpu.binding.slot, b.cpu.binding.slot) << what;
  ASSERT_EQ(a.cpu.binding.backlog, b.cpu.binding.backlog) << what;
  for (std::size_t k = 0; k < a.peaks.size(); ++k) {
    ASSERT_EQ(a.peaks[k], b.peaks[k]) << what << " attribute " << k;
  }
}

/// Calendars shorter than a flush block, a block-and-a-bit and one of
/// several blocks with a partial last one.
std::vector<trace::Calendar> calendars() {
  return {trace::Calendar(1, 480), trace::Calendar(1, 15),
          trace::Calendar(1, 5)};
}

TEST(EngineFlush, ProbeOfAServerWithQueuedOpsMatchesAFreshEngine) {
  for (const trace::Calendar& cal : calendars()) {
    const Fleet f(cal, 12, 0xF1u + cal.size());
    IncrementalEvaluator eng(cal, f.commitment, {24.0});
    f.register_all(eng);
    std::vector<std::size_t> hosted = {0, 1, 2, 3, 4, 5};
    for (const std::size_t id : hosted) eng.add(id, 0);
    (void)eng.verdict(0);
    // Two removes and an add wait in the queue when the probe arrives.
    eng.remove(1);
    eng.remove(4);
    eng.add(7, 0);
    hosted = {0, 2, 3, 5, 7};
    const std::string what = "slots=" + std::to_string(cal.size());
    for (const std::size_t candidate : {6u, 8u, 9u}) {
      std::vector<std::size_t> with = hosted;
      with.push_back(candidate);
      expect_same_verdict(eng.probe(0, candidate), f.fresh(with, 24.0),
                          what + " probe " + std::to_string(candidate));
      if (HasFatalFailure()) return;
    }
    expect_same_verdict(eng.verdict(0), f.fresh(hosted, 24.0),
                        what + " verdict after probes");
    if (HasFatalFailure()) return;
  }
}

TEST(EngineFlush, QueueAtTheRebuildThresholdAndOneBelow) {
  for (const trace::Calendar& cal : calendars()) {
    const Fleet f(cal, 12, 0xF2u + cal.size());
    const std::string what = "slots=" + std::to_string(cal.size());
    // Four hosted, two removed and one added: three queued ops against
    // three hosted, so the flush rebuilds.
    {
      IncrementalEvaluator eng(cal, f.commitment, {24.0});
      f.register_all(eng);
      for (const std::size_t id : {0u, 1u, 2u, 3u}) eng.add(id, 0);
      (void)eng.verdict(0);
      const IncrementalEvaluator::Stats before = eng.stats();
      eng.remove(0);
      eng.remove(2);
      eng.add(9, 0);
      expect_same_verdict(eng.verdict(0), f.fresh({1, 3, 9}, 24.0),
                          what + " at the threshold");
      if (HasFatalFailure()) return;
      EXPECT_EQ(eng.stats().sum_rebuilds, before.sum_rebuilds + 1) << what;
      EXPECT_EQ(eng.stats().delta_verdicts, before.delta_verdicts) << what;
    }
    // Five hosted, the same three ops against four hosted: the flush
    // applies the queue to the standing sums.
    {
      IncrementalEvaluator eng(cal, f.commitment, {24.0});
      f.register_all(eng);
      for (const std::size_t id : {0u, 1u, 2u, 3u, 4u}) eng.add(id, 0);
      (void)eng.verdict(0);
      const IncrementalEvaluator::Stats before = eng.stats();
      eng.remove(0);
      eng.remove(2);
      eng.add(9, 0);
      expect_same_verdict(eng.verdict(0), f.fresh({1, 3, 4, 9}, 24.0),
                          what + " one below the threshold");
      if (HasFatalFailure()) return;
      EXPECT_EQ(eng.stats().sum_rebuilds, before.sum_rebuilds) << what;
      EXPECT_EQ(eng.stats().delta_verdicts, before.delta_verdicts + 1)
          << what;
    }
  }
}

TEST(EngineFlush, ProbeThenVerdictMatchesAFreshEngine) {
  Rng rng(0xF3);
  for (const trace::Calendar& cal : calendars()) {
    const Fleet f(cal, 16, 0xF3u + cal.size());
    const std::vector<double> cpus = {12.0, 24.0, 40.0};
    IncrementalEvaluator eng(cal, f.commitment, cpus);
    f.register_all(eng);
    std::vector<std::vector<std::size_t>> hosted(cpus.size());
    for (int step = 0; step < 120; ++step) {
      const std::size_t id = rng.uniform_index(f.workloads.size());
      const std::size_t s = rng.uniform_index(cpus.size());
      const std::size_t host = eng.host_of(id);
      const std::string what = "slots=" + std::to_string(cal.size()) +
                               " step " + std::to_string(step);
      if (host == IncrementalEvaluator::npos) {
        if (rng.bernoulli(0.5)) {
          std::vector<std::size_t> with = hosted[s];
          with.push_back(id);
          expect_same_verdict(eng.probe(s, id), f.fresh(with, cpus[s]),
                              what + " probe");
          if (HasFatalFailure()) return;
        } else {
          eng.add(id, s);
          hosted[s].push_back(id);
        }
      } else {
        eng.remove(id);
        std::erase(hosted[host], id);
      }
      // The verdict after every step, probe or not, is a fresh engine's.
      expect_same_verdict(eng.verdict(s), f.fresh(hosted[s], cpus[s]),
                          what + " verdict");
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ropus
