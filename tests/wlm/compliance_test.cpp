#include "wlm/compliance.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "trace/calendar.h"

namespace ropus::wlm {
namespace {

using trace::Calendar;

Calendar tiny() { return Calendar(1, 720); }  // 14 observations

qos::Requirement req(std::optional<double> t_degr = std::nullopt) {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = 97.0;
  r.t_degr_minutes = t_degr;
  return r;
}

/// Judges a whole tiny-calendar trace.
ComplianceReport check(const std::vector<double>& demand,
                       const std::vector<double>& grants) {
  return check_compliance_range(demand, grants, req(), 720.0);
}

TEST(Compliance, ClassifiesBands) {
  // demand 1.0 with grants chosen to land in each band.
  std::vector<double> demand(tiny().size(), 1.0);
  demand[0] = 0.0;  // idle
  std::vector<double> grants(tiny().size(), 2.0);  // u = 0.5 acceptable
  grants[1] = 1.25;  // u = 0.8: degraded
  grants[2] = 1.0;   // u = 1.0: violating (> u_degr)
  grants[3] = 0.0;   // no grant with demand: violating
  const ComplianceReport r = check(demand, grants);
  EXPECT_EQ(r.intervals, tiny().size());
  EXPECT_EQ(r.idle, 1u);
  EXPECT_EQ(r.degraded, 1u);
  EXPECT_EQ(r.violating, 2u);
  EXPECT_EQ(r.acceptable, tiny().size() - 4);
}

TEST(Compliance, DegradedFractionExcludesIdle) {
  std::vector<double> demand(tiny().size(), 0.0);
  demand[0] = 1.0;
  std::vector<double> grants(tiny().size(), 1.25);  // u = 0.8 on the one
  const ComplianceReport r = check(demand, grants);
  EXPECT_DOUBLE_EQ(r.degraded_fraction(), 1.0);
}

TEST(Compliance, LongestRunInMinutes) {
  std::vector<double> demand(tiny().size(), 1.0);
  std::vector<double> grants(tiny().size(), 2.0);
  grants[4] = grants[5] = grants[6] = 1.25;  // 3 consecutive degraded
  const ComplianceReport r = check(demand, grants);
  EXPECT_DOUBLE_EQ(r.longest_degraded_minutes, 3.0 * 720.0);
}

TEST(Compliance, SatisfiesChecksAllTerms) {
  ComplianceReport r;
  r.intervals = 100;
  r.acceptable = 98;
  r.degraded = 2;
  EXPECT_TRUE(r.satisfies(band_of(req()), 0.0));  // 2% <= 3% budget

  r.degraded = 5;
  r.acceptable = 95;
  EXPECT_FALSE(r.satisfies(band_of(req()), 0.0));  // 5% > 3%
  EXPECT_TRUE(r.satisfies(band_of(req()), 2.5));   // slack covers it

  r.degraded = 2;
  r.acceptable = 98;
  r.violating = 1;
  EXPECT_FALSE(r.satisfies(band_of(req()), 10.0));  // any violation fails

  r.violating = 0;
  r.longest_degraded_minutes = 1440.0;
  EXPECT_FALSE(r.satisfies(band_of(req(720.0)), 10.0));  // run too long
  EXPECT_TRUE(r.satisfies(band_of(req(2000.0)), 10.0));
}

TEST(Compliance, MismatchedLengthsThrow) {
  EXPECT_THROW(check(std::vector<double>(tiny().size(), 1.0), {1.0, 2.0}),
               InvalidArgument);
}

TEST(Compliance, AttributedSplitsDegradationByFallbackCause) {
  const std::vector<double> demand(tiny().size(), 1.0);
  std::vector<double> grants(tiny().size(), 2.0);  // acceptable baseline
  grants[1] = 1.25;  // degraded, on fallback -> telemetry-attributed
  grants[2] = 1.0;   // violating, on fallback -> telemetry-attributed
  grants[3] = 1.25;  // degraded, measurement-driven -> capacity-attributed
  const std::vector<bool> mask(tiny().size(), true);
  std::vector<bool> fallback(tiny().size(), false);
  fallback[1] = true;
  fallback[2] = true;
  const ComplianceReport r = check_compliance_attributed(
      demand, grants, mask, fallback, req(), 720.0);
  EXPECT_EQ(r.degraded, 2u);
  EXPECT_EQ(r.violating, 1u);
  EXPECT_EQ(r.degraded_telemetry, 1u);
  EXPECT_EQ(r.violating_telemetry, 1u);
}

TEST(Compliance, AttributedWithEmptyFallbackEqualsMasked) {
  const std::vector<double> demand(tiny().size(), 1.0);
  std::vector<double> grants(tiny().size(), 2.0);
  grants[1] = 1.25;
  grants[2] = 1.0;
  std::vector<bool> mask(tiny().size(), true);
  mask[4] = false;
  const slo::BandCounts masked =
      slo::accumulate_bands(demand, grants, band_of(req()), 720.0, &mask);
  const ComplianceReport attributed = check_compliance_attributed(
      demand, grants, mask, {}, req(), 720.0);
  EXPECT_EQ(attributed.intervals, masked.intervals);
  EXPECT_EQ(attributed.degraded, masked.degraded);
  EXPECT_EQ(attributed.violating, masked.violating);
  EXPECT_EQ(attributed.degraded_telemetry, 0u);
  EXPECT_EQ(attributed.violating_telemetry, 0u);
}

TEST(Compliance, AttributedRejectsMisalignedFallback) {
  const std::vector<double> demand(tiny().size(), 1.0);
  const std::vector<double> grants(tiny().size(), 2.0);
  const std::vector<bool> mask(tiny().size(), true);
  const std::vector<bool> fallback(3, true);
  EXPECT_THROW(check_compliance_attributed(demand, grants, mask, fallback,
                                           req(), 720.0),
               InvalidArgument);
}

}  // namespace
}  // namespace ropus::wlm
