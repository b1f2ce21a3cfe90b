#include "trace/forecast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "workload/generator.h"

namespace ropus::trace {
namespace {

// 2 slots/day for fast arithmetic.
DemandTrace weekly_pattern(std::size_t weeks, double growth_per_week) {
  const Calendar cal(weeks, 720);
  std::vector<double> v(cal.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double base = (cal.slot_of(i) == 0) ? 1.0 : 3.0;
    v[i] = base * (1.0 + growth_per_week * static_cast<double>(cal.week_of(i)));
  }
  return DemandTrace("pattern", cal, std::move(v));
}

TEST(WeeklyTrend, FlatTraceIsOne) {
  EXPECT_NEAR(weekly_trend_ratio(weekly_pattern(4, 0.0)), 1.0, 1e-9);
}

TEST(WeeklyTrend, GrowthDetected) {
  const double ratio = weekly_trend_ratio(weekly_pattern(4, 0.10));
  EXPECT_GT(ratio, 1.05);
  EXPECT_LT(ratio, 1.15);
}

TEST(WeeklyTrend, SingleWeekDefaultsToFlat) {
  EXPECT_DOUBLE_EQ(weekly_trend_ratio(weekly_pattern(1, 0.5)), 1.0);
}

TEST(Forecast, ReproducesSeasonalShape) {
  const DemandTrace history = weekly_pattern(4, 0.0);
  const DemandTrace next = forecast(history, {});
  ASSERT_EQ(next.calendar().weeks(), 1u);
  // Slot 0 ~ 1.0, slot 1 ~ 3.0, every day.
  for (std::size_t d = 0; d < Calendar::kDaysPerWeek; ++d) {
    EXPECT_NEAR(next.at(0, d, 0), 1.0, 1e-9);
    EXPECT_NEAR(next.at(0, d, 1), 3.0, 1e-9);
  }
}

TEST(Forecast, ProjectsTrendForward) {
  const DemandTrace history = weekly_pattern(4, 0.10);
  ForecastOptions opts;
  opts.max_weekly_trend = 0.5;
  const DemandTrace next = forecast(history, opts);
  // Week 4 (first projected) should exceed the historical mean profile.
  const double mean_history =
      (1.0 + 3.0) / 2.0 * (1.0 + 0.10 * 1.5);  // avg across 4 weeks
  double mean_next = 0.0;
  for (std::size_t i = 0; i < next.size(); ++i) mean_next += next[i];
  mean_next /= static_cast<double>(next.size());
  EXPECT_GT(mean_next, mean_history);
}

TEST(Forecast, TrendCapLimitsRunaway) {
  // 60% week-over-week growth, capped at 10%.
  const DemandTrace history = weekly_pattern(3, 0.6);
  ForecastOptions opts;
  opts.max_weekly_trend = 0.10;
  opts.horizon_weeks = 2;
  const DemandTrace next = forecast(history, opts);
  const double profile_peak = 3.0 * (1.0 + 0.6);  // last-week slot-1 level
  // With the cap, even the second projected week stays within ~1.1^4 of
  // the across-week mean profile; without it the projection would blow up.
  const double mean_profile = 3.0 * (1.0 + 0.6 * 1.0);
  EXPECT_LT(next.at(1, 0, 1), mean_profile * std::pow(1.1, 4.0) + 1e-9);
  EXPECT_LT(next.at(1, 0, 1), profile_peak * 1.5);
}

TEST(Forecast, MultiWeekHorizonCompounds) {
  const DemandTrace history = weekly_pattern(4, 0.10);
  ForecastOptions opts;
  opts.horizon_weeks = 3;
  const DemandTrace next = forecast(history, opts);
  EXPECT_EQ(next.calendar().weeks(), 3u);
  // Later projected weeks are at least as large (positive trend).
  EXPECT_GE(next.at(2, 0, 1) + 1e-12, next.at(0, 0, 1));
}

TEST(Forecast, RejectsBadOptions) {
  const DemandTrace history = weekly_pattern(2, 0.0);
  ForecastOptions opts;
  opts.horizon_weeks = 0;
  EXPECT_THROW(forecast(history, opts), InvalidArgument);
  opts = {};
  opts.max_weekly_trend = -0.1;
  EXPECT_THROW(forecast(history, opts), InvalidArgument);
}

TEST(Forecast, RealisticWorkloadNextWeekErrorModest) {
  // Generate 3 weeks, forecast week 3 from weeks 0-2, compare to the real
  // week 3 of a 4-week run with the same seed (the generator is
  // deterministic, so week 3 really is the continuation).
  workload::Profile p;
  p.name = "fc-app";
  p.base_cpus = 2.0;
  p.max_cpus = 10.0;
  p.spikes_per_day = 0.1;  // forecasting spikes is hopeless by design
  const auto four = workload::generate(p, Calendar(4, 5), 77);

  const Calendar three(3, 5);
  std::vector<double> head(four.values().begin(),
                           four.values().begin() +
                               static_cast<std::ptrdiff_t>(three.size()));
  const DemandTrace history("fc-app", three, std::move(head));
  const DemandTrace projection = forecast(history, {});

  const Calendar one(1, 5);
  std::vector<double> tail(four.values().end() -
                               static_cast<std::ptrdiff_t>(one.size()),
                           four.values().end());
  const DemandTrace actual("fc-app", one, std::move(tail));

  // The seasonal-naive projection should land well under 50% mean absolute
  // percentage error (over non-zero actuals) on a diurnal workload with
  // mild noise.
  double pct_sum = 0.0;
  std::size_t pct_count = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] <= 0.0) continue;
    pct_sum += std::abs(actual[i] - projection[i]) / actual[i];
    ++pct_count;
  }
  ASSERT_GT(pct_count, 0u);
  EXPECT_LT(100.0 * pct_sum / static_cast<double>(pct_count), 50.0);
}

}  // namespace
}  // namespace ropus::trace
