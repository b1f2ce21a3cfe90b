#include "trace/forecast.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ropus::trace {

double weekly_trend_ratio(const DemandTrace& history) {
  const Calendar& cal = history.calendar();
  if (cal.weeks() < 2) return 1.0;

  // Least-squares on weekly mean demand: fit mean_w = a + b w, report the
  // relative slope around the midpoint as a per-week ratio.
  const std::size_t weeks = cal.weeks();
  std::vector<double> weekly_mean(weeks, 0.0);
  for (std::size_t i = 0; i < history.size(); ++i) {
    weekly_mean[cal.week_of(i)] += history[i];
  }
  for (double& m : weekly_mean) {
    m /= static_cast<double>(cal.slots_per_week());
  }
  const double n = static_cast<double>(weeks);
  double sum_w = 0.0, sum_m = 0.0, sum_wm = 0.0, sum_ww = 0.0;
  for (std::size_t w = 0; w < weeks; ++w) {
    const double x = static_cast<double>(w);
    sum_w += x;
    sum_m += weekly_mean[w];
    sum_wm += x * weekly_mean[w];
    sum_ww += x * x;
  }
  const double denom = n * sum_ww - sum_w * sum_w;
  if (denom <= 0.0) return 1.0;
  const double slope = (n * sum_wm - sum_w * sum_m) / denom;
  const double mean = sum_m / n;
  if (mean <= 0.0) return 1.0;
  return 1.0 + slope / mean;
}

DemandTrace forecast(const DemandTrace& history, const ForecastOptions& opts) {
  ROPUS_REQUIRE(opts.horizon_weeks >= 1, "horizon must be >= 1 week");
  ROPUS_REQUIRE(opts.max_weekly_trend >= 0.0,
                "trend cap must be non-negative");
  const Calendar& cal = history.calendar();

  // Seasonal profile: across-week mean per (day, slot).
  const std::size_t slots_per_week = cal.slots_per_week();
  std::vector<double> profile(slots_per_week, 0.0);
  for (std::size_t i = 0; i < history.size(); ++i) {
    profile[i % slots_per_week] += history[i];
  }
  for (double& v : profile) v /= static_cast<double>(cal.weeks());

  const double cap = 1.0 + opts.max_weekly_trend;
  const double ratio = std::clamp(weekly_trend_ratio(history), 1.0 / cap, cap);

  // The first projected week sits (weeks + 1) / 2 weeks past the profile's
  // centre of mass, so the trend compounds from there.
  const double lead =
      (static_cast<double>(cal.weeks()) + 1.0) / 2.0;

  const Calendar out_cal(opts.horizon_weeks, cal.minutes_per_sample());
  std::vector<double> values(out_cal.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t week = i / slots_per_week;
    const double scale =
        std::pow(ratio, lead + static_cast<double>(week));
    values[i] = std::max(0.0, profile[i % slots_per_week] * scale);
  }
  return DemandTrace(history.name() + "/forecast", out_cal,
                     std::move(values));
}

}  // namespace ropus::trace
