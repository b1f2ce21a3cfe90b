// QoS translation: percentile capping (formulas 2-3), the MaxCapReduction
// bound (formula 5), and the T_degr run-breaking iteration (formulas 6-11).
#include "qos/translation.h"

#include <gtest/gtest.h>

#include <vector>

#include "oracles.h"
#include "workload/fleet.h"

namespace ropus::qos {
namespace {

using trace::Calendar;
using trace::DemandTrace;
using testing::worst_case_utilization;

Requirement paper_req(double m_percent = 97.0,
                      std::optional<double> t_degr = std::nullopt) {
  Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = m_percent;
  r.t_degr_minutes = t_degr;
  return r;
}

// A trace that is 1.0 everywhere except `spikes` observations of `peak`,
// placed far apart.
DemandTrace spiky_trace(double peak, std::size_t spikes) {
  const Calendar cal(1, 5);
  std::vector<double> v(cal.size(), 1.0);
  for (std::size_t s = 0; s < spikes; ++s) {
    v[(s + 1) * 97] = peak;
  }
  return DemandTrace("spiky", cal, std::move(v));
}

TEST(Translate, ZeroTraceIsDegenerate) {
  const auto tr = translate(DemandTrace::zeros("z", Calendar(1, 5)),
                            paper_req(), CosCommitment{0.6, 60.0});
  EXPECT_DOUBLE_EQ(tr.d_max, 0.0);
  EXPECT_DOUBLE_EQ(tr.d_new_max, 0.0);
  EXPECT_DOUBLE_EQ(tr.peak_allocation(), 0.0);
}

TEST(Translate, M100UsesRawPeak) {
  const auto tr = translate(spiky_trace(10.0, 5), paper_req(100.0),
                            CosCommitment{0.6, 60.0});
  EXPECT_DOUBLE_EQ(tr.d_new_max, 10.0);
  EXPECT_DOUBLE_EQ(tr.max_cap_reduction(), 0.0);
}

TEST(Translate, PercentileCappingUsesMthPercentileWhenItDominates) {
  // Peak 1.2, 97th percentile 1.0: A_ok = 1.0/0.66 = 1.515 >
  // A_degr = 1.2/0.9 = 1.333, so D_new_max = D_97% = 1.0.
  const auto tr = translate(spiky_trace(1.2, 5), paper_req(97.0),
                            CosCommitment{0.6, 60.0});
  EXPECT_NEAR(tr.d_new_max, 1.0, 1e-9);
}

TEST(Translate, DegradedBoundDominatesForTallPeaks) {
  // Peak 10, 97th percentile 1: A_ok = 1/0.66 < A_degr = 10/0.9, so
  // D_new_max = D_max * U_high / U_degr = 10 * 0.7333 = 7.333 (formula 3).
  const auto tr = translate(spiky_trace(10.0, 5), paper_req(97.0),
                            CosCommitment{0.6, 60.0});
  EXPECT_NEAR(tr.d_new_max, 10.0 * 0.66 / 0.9, 1e-9);
  // Realized reduction equals the formula-5 bound in this regime.
  EXPECT_NEAR(tr.max_cap_reduction(), 1.0 - 0.66 / 0.9, 1e-9);
}

TEST(Translate, MaxCapReductionNeverExceedsFormula5Bound) {
  // Property over the whole case-study fleet and both paper thetas.
  const auto traces = workload::case_study_traces(Calendar(1, 5), 77);
  for (double theta : {0.6, 0.95}) {
    for (const auto& t : traces) {
      const auto tr =
          translate(t, paper_req(97.0), CosCommitment{theta, 60.0});
      EXPECT_LE(tr.max_cap_reduction(),
                paper_req().max_cap_reduction_bound() + 1e-9)
          << t.name() << " theta=" << theta;
      EXPECT_GE(tr.max_cap_reduction(), -1e-12);
    }
  }
}

TEST(Translate, WorstCaseUtilizationRespectsBands) {
  const Requirement req = paper_req(97.0);
  for (double theta : {0.6, 0.95}) {
    const auto trace = spiky_trace(10.0, 5);
    const auto tr = translate(trace, req, CosCommitment{theta, 60.0});
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const double u = worst_case_utilization(tr, trace[i]);
      if (trace[i] <= 0.0) continue;
      // Nothing may exceed U_degr (that is what D_new_max guarantees)...
      EXPECT_LE(u, req.u_degr + 1e-9);
      // ...and non-degraded observations stay within U_high.
      if (trace[i] <= tr.degraded_demand_threshold()) {
        EXPECT_LE(u, req.u_high + 1e-9);
      }
    }
  }
}

TEST(Translate, DegradedFractionWithinBudget) {
  // At most M_degr = 3% of observations may sit above U_high.
  const auto traces = workload::case_study_traces(Calendar(1, 5), 99);
  for (const auto& t : traces) {
    const auto tr = translate(t, paper_req(97.0), CosCommitment{0.6, 60.0});
    EXPECT_LE(degraded_fraction(t, tr), 0.03 + 1e-9) << t.name();
  }
}

TEST(Translate, P0CaseDegradesLessThanBudget) {
  // theta = 0.95 > U_low/U_high: p = 0 and the degradation threshold
  // sits above D_new_max, so fewer points degrade than with theta = 0.6
  // (the Figure 8a vs 8b effect).
  const auto traces = workload::case_study_traces(Calendar(1, 5), 99);
  double total_low = 0.0;
  double total_high = 0.0;
  for (const auto& t : traces) {
    const auto lo = translate(t, paper_req(97.0), CosCommitment{0.6, 60.0});
    const auto hi = translate(t, paper_req(97.0), CosCommitment{0.95, 60.0});
    total_low += degraded_fraction(t, lo);
    total_high += degraded_fraction(t, hi);
  }
  EXPECT_LT(total_high, total_low);
}

TEST(Translate, TdegrBreaksLongRuns) {
  // 1.0 everywhere with one contiguous block of 13 observations at 5.0:
  // 65 minutes of degradation. T_degr = 30 min (R = 6) must break it.
  const Calendar cal(1, 5);
  std::vector<double> v(cal.size(), 1.0);
  for (std::size_t i = 500; i < 513; ++i) v[i] = 5.0;
  const DemandTrace t("runs", cal, v);

  const Requirement no_limit = paper_req(97.0);
  const Requirement with_limit = paper_req(97.0, 30.0);
  const CosCommitment cos2{0.6, 60.0};

  const auto tr_none = translate(t, no_limit, cos2);
  const auto tr_lim = translate(t, with_limit, cos2);

  EXPECT_GT(longest_degraded_minutes(t, tr_none), 30.0);
  EXPECT_LE(longest_degraded_minutes(t, tr_lim), 30.0);
  EXPECT_GT(tr_lim.d_new_max, tr_none.d_new_max);
  EXPECT_GE(tr_lim.t_degr_iterations, 1u);
}

TEST(Translate, TdegrNoopWhenRunsAreShort) {
  // Isolated spikes never violate a 30-minute limit.
  const auto t = spiky_trace(10.0, 5);
  const auto tr_none =
      translate(t, paper_req(97.0), CosCommitment{0.6, 60.0});
  const auto tr_lim =
      translate(t, paper_req(97.0, 30.0), CosCommitment{0.6, 60.0});
  EXPECT_DOUBLE_EQ(tr_none.d_new_max, tr_lim.d_new_max);
  EXPECT_EQ(tr_lim.t_degr_iterations, 0u);
}

TEST(Translate, TdegrMonotoneInLimit) {
  // Tighter limits can only raise D_new_max.
  const auto traces = workload::case_study_traces(Calendar(1, 5), 55);
  const CosCommitment cos2{0.6, 60.0};
  for (const auto& t : traces) {
    double prev = translate(t, paper_req(97.0), cos2).d_new_max;
    for (double minutes : {120.0, 60.0, 30.0}) {
      const double d =
          translate(t, paper_req(97.0, minutes), cos2).d_new_max;
      EXPECT_GE(d + 1e-9, prev) << t.name() << " T=" << minutes;
      prev = d;
    }
  }
}

TEST(Translate, TdegrConstraintHoldsAfterTranslationEverywhere) {
  // Property: after translation with T_degr, no degraded run exceeds it.
  const auto traces = workload::case_study_traces(Calendar(1, 5), 31);
  for (double theta : {0.6, 0.95}) {
    for (double minutes : {30.0, 60.0, 120.0}) {
      for (const auto& t : traces) {
        const auto tr =
            translate(t, paper_req(97.0, minutes), CosCommitment{theta, 60.0});
        EXPECT_LE(longest_degraded_minutes(t, tr), minutes + 1e-9)
            << t.name() << " theta=" << theta << " T=" << minutes;
      }
    }
  }
}

TEST(Translate, HigherThetaGivesSmallerOrEqualDnmUnderTdegr) {
  // Section V: under time-limited degradation, higher theta can only shrink
  // the maximum allocation (Figure 3 discussion).
  const auto traces = workload::case_study_traces(Calendar(1, 5), 13);
  for (const auto& t : traces) {
    const auto lo =
        translate(t, paper_req(97.0, 30.0), CosCommitment{0.6, 60.0});
    const auto hi =
        translate(t, paper_req(97.0, 30.0), CosCommitment{0.95, 60.0});
    EXPECT_LE(hi.d_new_max, lo.d_new_max + 1e-9) << t.name();
  }
}

}  // namespace
}  // namespace ropus::qos
