// Demand forecasting.
//
// The trace-based method assumes "future demands will be roughly similar"
// to recent history and that most workloads "change slowly (e.g., over
// several months)" (Section II). This module makes that operational: a
// seasonal-naive forecast with a linear week-over-week trend projects the
// next W weeks from history.
#pragma once

#include "trace/demand_trace.h"

namespace ropus::trace {

struct ForecastOptions {
  /// Weeks to project forward.
  std::size_t horizon_weeks = 1;
  /// Per-week multiplicative trend cap; the fitted week-over-week growth
  /// ratio is clamped to [1/(1+cap), 1+cap] so one anomalous week cannot
  /// produce a runaway projection.
  double max_weekly_trend = 0.25;
};

/// Projects `history` (>= 1 week) forward. Slot (d, t) of each projected
/// week is the across-week mean of slot (d, t) scaled by the fitted trend
/// ratio compounded per projected week, and never below zero. The result's
/// calendar has `horizon_weeks` weeks on the same sampling interval.
DemandTrace forecast(const DemandTrace& history, const ForecastOptions& opts);

/// Fitted week-over-week demand growth ratio of a trace (1.0 = flat);
/// exposed because tests and capacity-planning reports both want it.
double weekly_trend_ratio(const DemandTrace& history);

}  // namespace ropus::trace
