#include "trace/trace_stats.h"

#include "common/stats.h"

namespace ropus::trace {

PercentileCurve percentile_curve(const DemandTrace& t,
                                 std::span<const double> pcts) {
  PercentileCurve curve;
  curve.name = t.name();
  curve.percentiles.assign(pcts.begin(), pcts.end());
  std::vector<double> qs;
  qs.reserve(pcts.size());
  for (double p : pcts) {
    ROPUS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    qs.push_back(p / 100.0);
  }
  const std::vector<double> values = stats::quantiles(t.values(), qs);
  const double peak = t.peak();
  curve.normalized_demand.reserve(values.size());
  for (double v : values) {
    curve.normalized_demand.push_back(peak > 0.0 ? 100.0 * v / peak : 0.0);
  }
  return curve;
}

double peak_to_percentile_ratio(const DemandTrace& t, double pct) {
  const double peak = t.peak();
  if (peak <= 0.0) return 1.0;
  const double p = stats::percentile(t.values(), pct);
  return p > 0.0 ? peak / p : 1.0;
}

double coefficient_of_variation(const DemandTrace& t) {
  const stats::Summary s = stats::summarize(t.values());
  return s.mean > 0.0 ? s.stddev / s.mean : 0.0;
}

}  // namespace ropus::trace
