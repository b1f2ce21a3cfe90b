// Exhaustive property sweep of QoS translation over a requirement grid and
// several synthetic workloads: the invariants that must hold for *any*
// valid input, parameterized per combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "oracles.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "qos/workload_allocations.h"
#include "trace/attribute.h"

namespace ropus::qos {
namespace {

using trace::Calendar;
using trace::DemandTrace;
using testing::worst_case_utilization;

// (u_low, u_high), u_degr, m_percent, theta, workload seed
using Params =
    std::tuple<std::pair<double, double>, double, double, double,
               std::uint64_t>;

class TranslationProperty : public ::testing::TestWithParam<Params> {
 protected:
  Requirement requirement() const {
    const auto& [band, u_degr, m, theta, seed] = GetParam();
    Requirement r;
    r.u_low = band.first;
    r.u_high = band.second;
    r.u_degr = u_degr;
    r.m_percent = m;
    return r;
  }
  CosCommitment commitment() const {
    return CosCommitment{std::get<3>(GetParam()), 60.0};
  }
  DemandTrace workload() const {
    // Bursty synthetic series: AR-ish baseline plus clustered spikes.
    Rng rng(std::get<4>(GetParam()));
    const Calendar cal(1, 15);  // 96 slots/day, 672 observations
    std::vector<double> v(cal.size());
    double level = 1.0;
    std::size_t burst = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      level = 0.8 * level + 0.2 * rng.uniform(0.5, 2.0);
      if (burst == 0 && rng.bernoulli(0.01)) {
        burst = rng.geometric(0.25);
      }
      double d = level;
      if (burst > 0) {
        d += rng.pareto(1.0, 1.2);
        --burst;
      }
      v[i] = std::min(d, 12.0);
    }
    return DemandTrace("prop", cal, std::move(v));
  }
};

TEST_P(TranslationProperty, CoreInvariantsHold) {
  const Requirement req = requirement();
  const CosCommitment cos2 = commitment();
  const DemandTrace t = workload();
  const Translation tr = translate(t, req, cos2);

  // D_new_max lies between the degraded-bound floor and the raw peak.
  EXPECT_LE(tr.d_new_max, tr.d_max * (1.0 + 1e-9));
  if (req.m_percent < 100.0) {
    EXPECT_GE(tr.d_new_max,
              tr.d_max * req.u_high / req.u_degr * (1.0 - 1e-9));
  } else {
    EXPECT_DOUBLE_EQ(tr.d_new_max, tr.d_max);
  }

  // Breakpoint and mix sanity.
  EXPECT_GE(tr.breakpoint_p, 0.0);
  EXPECT_LE(tr.breakpoint_p, 1.0);
  EXPECT_GE(tr.cos_mix() + 1e-12, req.u_low / req.u_high);

  // The degraded budget holds.
  EXPECT_LE(degraded_fraction(t, tr),
            req.m_degr_percent() / 100.0 + 1e-9);

  // Worst-case utilization never exceeds U_degr anywhere.
  for (std::size_t i = 0; i < t.size(); i += 7) {
    EXPECT_LE(worst_case_utilization(tr, t[i]), req.u_degr + 1e-9);
  }
}

TEST_P(TranslationProperty, TimeLimitEnforcedWhenRequested) {
  Requirement req = requirement();
  req.t_degr_minutes = 60.0;
  const DemandTrace t = workload();
  const Translation tr = translate(t, req, commitment());
  EXPECT_LE(longest_degraded_minutes(t, tr), 60.0 + 1e-9);
  // And it can only have raised D_new_max relative to the unconstrained
  // translation.
  Requirement unconstrained = requirement();
  const Translation base = translate(t, unconstrained, commitment());
  EXPECT_GE(tr.d_new_max + 1e-9, base.d_new_max);
}

TEST_P(TranslationProperty, AllocationSplitReconstructsRequest) {
  const Requirement req = requirement();
  const DemandTrace t = workload();
  const Translation tr = translate(t, req, commitment());
  const AllocationTrace alloc(t, tr);
  // Per-slot values are snapped to the 2^-20 CPU allocation grid at
  // construction (common/grid.h), so reconstruction holds to one grid step
  // (half a step per class), not to ULPs.
  for (std::size_t i = 0; i < t.size(); i += 13) {
    const double expected = std::min(t[i], tr.d_new_max) / req.u_low;
    EXPECT_NEAR(alloc.total(i), expected, grid::kStep);
    EXPECT_LE(alloc.cos1()[i], tr.peak_cos1_allocation() + grid::kStep);
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST_P(TranslationProperty, AllocationsHoldTheGridContract) {
  // What the delta engine trusts without checking (docs/algorithms.md §11,
  // "The precondition"): every value is >= 0 and on the 2^-20 grid, and the
  // stored peaks are the series' maxima, bit for bit.
  const DemandTrace t = workload();
  const AllocationTrace alloc(t, translate(t, requirement(), commitment()));
  double peak_cos1 = 0.0;
  double peak_total = 0.0;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    for (const double v : {alloc.cos1()[i], alloc.cos2()[i]}) {
      ASSERT_GE(v, 0.0) << i;
      ASSERT_TRUE(grid::on_grid(v)) << i;
    }
    peak_cos1 = std::max(peak_cos1, alloc.cos1()[i]);
    peak_total = std::max(peak_total, alloc.total(i));
  }
  EXPECT_EQ(bits(alloc.peak_cos1()), bits(peak_cos1));
  EXPECT_EQ(bits(alloc.peak_allocation()), bits(peak_total));

  // Attribute traces, snapped from demand off every binary grid.
  WorkloadAllocations w(alloc);
  const std::array<double, 3> scales = {1.0 / 3.0, 7.3, 0.01};
  for (std::size_t k = 1; k < trace::kAttributeCount; ++k) {
    w.set_attribute(trace::kAllAttributes[k], t.scaled(scales[k - 1]));
  }
  for (std::size_t k = 1; k < trace::kAttributeCount; ++k) {
    const DemandTrace* a = w.attribute(trace::kAllAttributes[k]);
    ASSERT_NE(a, nullptr);
    double peak = 0.0;
    for (const double v : a->values()) {
      ASSERT_GE(v, 0.0) << k;
      ASSERT_TRUE(grid::on_grid(v)) << k;
      peak = std::max(peak, v);
    }
    EXPECT_EQ(bits(a->peak()), bits(peak)) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TranslationProperty,
    ::testing::Combine(
        ::testing::Values(std::pair{0.5, 0.66}, std::pair{0.4, 0.8},
                          std::pair{0.6, 0.7}),
        ::testing::Values(0.85, 0.95),
        ::testing::Values(95.0, 97.0, 100.0),
        ::testing::Values(0.6, 0.8, 0.95),
        ::testing::Values(11u, 23u)));

}  // namespace
}  // namespace ropus::qos
