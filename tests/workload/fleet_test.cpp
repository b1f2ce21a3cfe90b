// The case-study fleet must reproduce the structure the paper's Figure 6
// reports for the 26 proprietary applications (see DESIGN.md §2).
#include "workload/fleet.h"

#include <gtest/gtest.h>

#include "trace/trace_stats.h"

namespace ropus::workload {
namespace {

TEST(Fleet, HasTwentySixDistinctApplications) {
  const auto profiles = case_study_profiles();
  ASSERT_EQ(profiles.size(), kCaseStudyApps);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      EXPECT_NE(profiles[i].name, profiles[j].name);
    }
  }
}

TEST(Fleet, AllProfilesValidate) {
  for (const Profile& p : case_study_profiles()) {
    EXPECT_NO_THROW(p.validate()) << p.name;
  }
}

TEST(Fleet, FourWeekFiveMinuteCalendarByDefault) {
  const auto traces = case_study_traces(trace::Calendar::standard(4), 2006);
  ASSERT_EQ(traces.size(), kCaseStudyApps);
  EXPECT_EQ(traces[0].calendar().weeks(), 4u);
  EXPECT_EQ(traces[0].calendar().minutes_per_sample(), 5u);
}

TEST(Fleet, BurstinessDecreasesAcrossTheFleet) {
  // Figure 6: the leftmost applications are the most bursty. We check the
  // class averages rather than strict per-app ordering (noise).
  const auto traces = case_study_traces(trace::Calendar::standard(4), 2006);
  auto class_mean = [&traces](std::size_t lo, std::size_t hi) {
    double total = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      total += trace::peak_to_percentile_ratio(traces[i], 97.0);
    }
    return total / static_cast<double>(hi - lo);
  };
  const double extreme = class_mean(0, 2);
  const double high = class_mean(2, 10);
  const double steady = class_mean(20, 26);
  EXPECT_GT(extreme, high);
  EXPECT_GT(high, steady);
}

TEST(Fleet, ExtremeAppsHaveFigure6Shape) {
  // The two leftmost applications: a small fraction of points much larger
  // than the rest (top 0.1% >= ~4x the 97th percentile).
  const auto traces = case_study_traces(trace::Calendar::standard(4), 2006);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GT(trace::peak_to_percentile_ratio(traces[i], 97.0), 4.0)
        << traces[i].name();
  }
}

TEST(Fleet, HighBurstAppsWithinFigure6Band) {
  // Applications 3-10: top 3% of demand roughly 2-10x the remaining.
  const auto traces = case_study_traces(trace::Calendar::standard(4), 2006);
  std::size_t in_band = 0;
  for (std::size_t i = 2; i < 10; ++i) {
    const double r = trace::peak_to_percentile_ratio(traces[i], 97.0);
    if (r >= 1.5 && r <= 12.0) ++in_band;
  }
  EXPECT_GE(in_band, 6u);  // most of the class lands in the band
}

TEST(Fleet, FleetScaleSuitsA128CpuPool) {
  // Table I context: 26 applications consolidate onto ~8 16-way servers.
  // Peak demands must be large enough to be interesting and small enough
  // to fit: total peak demand between 60 and 160 CPUs.
  const auto traces = case_study_traces(trace::Calendar::standard(4), 2006);
  double total_peak = 0.0;
  for (const auto& t : traces) total_peak += t.peak();
  EXPECT_GT(total_peak, 60.0);
  EXPECT_LT(total_peak, 160.0);
}

TEST(Fleet, DeterministicAcrossCalls) {
  const auto a = case_study_traces(trace::Calendar::standard(4), 2006);
  const auto b = case_study_traces(trace::Calendar::standard(4), 2006);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].peak(), b[i].peak());
  }
}

}  // namespace
}  // namespace ropus::workload
