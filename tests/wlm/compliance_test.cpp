#include "wlm/compliance.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "qos/translation.h"
#include "slo/kernel.h"
#include "trace/calendar.h"
#include "wlm/failure_drill.h"

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
  return slo::accumulate_bands(demand, grants, band_of(req()), 720.0);
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
  // The schedule's judge: a slot served from the telemetry fallback charges
  // its degradation to the measurement pipeline.
  const std::vector<double> demand(tiny().size(), 1.0);
  std::vector<double> grants(tiny().size(), 2.0);  // acceptable baseline
  grants[1] = 1.25;  // degraded, on fallback -> telemetry-attributed
  grants[2] = 1.0;   // violating, on fallback -> telemetry-attributed
  grants[3] = 1.25;  // degraded, measurement-driven -> capacity-attributed
  slo::BandAccumulator judge(720.0);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    judge.observe(demand[i], grants[i], band_of(req()), i == 1 || i == 2);
  }
  const ComplianceReport& r = judge.counts();
  EXPECT_EQ(r.degraded, 2u);
  EXPECT_EQ(r.violating, 1u);
  EXPECT_EQ(r.degraded_telemetry, 1u);
  EXPECT_EQ(r.violating_telemetry, 1u);
}

TEST(Compliance, AttributedWithEmptyFallbackEqualsMasked) {
  // A perfect-telemetry schedule whose app alternates modes (failure mode
  // in slots 4-7): each mode's counts attribute nothing to telemetry and
  // equal its slots judged alone, a slot of the other mode ending the run.
  const std::vector<double> v{1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0,
                              3.0, 3.0, 3.0, 1.0, 0.0, 0.5, 3.0};
  const std::vector<trace::DemandTrace> demands{
      trace::DemandTrace("a", tiny(), v), trace::DemandTrace("b", tiny(), v)};
  const qos::CosCommitment cos2{1.0, 10080.0};
  std::vector<qos::Translation> normal;
  std::vector<qos::Translation> failure;
  qos::Requirement relaxed = req(1440.0);
  relaxed.u_high = 0.8;
  relaxed.u_degr = 0.95;
  for (const trace::DemandTrace& d : demands) {
    normal.push_back(qos::translate(d, req(), cos2));
    failure.push_back(qos::translate(d, relaxed, cos2));
  }
  // Two clairvoyant apps on 9 CPUs: each asks for 6 at demand 3, so
  // those slots are squeezed to 4.5 (U = 0.67).
  const std::vector<sim::ServerSpec> pool{sim::ServerSpec{"s", 9}};
  std::vector<SchedulePhase> phases(3);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phases[p].start_slot = std::vector<std::size_t>{0, 4, 8}[p];
    phases[p].hosts = {0, 0};
    phases[p].failure_mode.assign(2, p == 1);
    phases[p].down = {false};
  }
  const ScheduleResult r = run_event_schedule(
      demands, normal, failure, pool, phases, {}, Policy::kClairvoyant);

  const ScheduleAppOutcome& app = r.apps[0];
  for (const bool failure_mode : {false, true}) {
    slo::BandAccumulator masked(720.0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if ((i >= 4 && i < 8) != failure_mode) {
        masked.end_run();
        continue;
      }
      masked.observe(v[i], app.granted[i],
                     band_of(failure_mode ? relaxed : req()));
    }
    const ComplianceReport& want = masked.counts();
    const ComplianceReport& got =
        failure_mode ? app.failure_mode : app.normal_mode;
    EXPECT_EQ(got.intervals, want.intervals);
    EXPECT_EQ(got.idle, want.idle);
    EXPECT_EQ(got.acceptable, want.acceptable);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.violating, want.violating);
    EXPECT_EQ(got.longest_degraded_minutes, want.longest_degraded_minutes);
    EXPECT_EQ(got.degraded_telemetry, 0u);
    EXPECT_EQ(got.violating_telemetry, 0u);
  }
  // Slots 1-3 and 8-9 are degraded in normal mode; the failure-mode
  // stretch between them ends the first run.
  EXPECT_EQ(app.normal_mode.degraded, 6u);
  EXPECT_EQ(app.normal_mode.longest_degraded_minutes, 3.0 * 720.0);
}

}  // namespace
}  // namespace ropus::wlm
