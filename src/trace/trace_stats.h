// Trace-level statistics: the percentile curves of Figure 6 and burstiness
// metrics.
#pragma once

#include <vector>

#include "trace/demand_trace.h"

namespace ropus::trace {

/// One application's row in Figure 6: selected top percentiles of demand,
/// normalized so the trace peak is 100%.
struct PercentileCurve {
  std::string name;
  std::vector<double> percentiles;        // e.g. {97, 98, 99, 99.5, 99.9}
  std::vector<double> normalized_demand;  // same order, in percent of peak
};

/// Computes normalized top-percentile values for a trace. `pcts` entries must
/// be in [0, 100]. A zero trace normalizes to zeros.
PercentileCurve percentile_curve(const DemandTrace& t,
                                 std::span<const double> pcts);

/// Burstiness of a trace: ratio of peak to the given percentile (e.g. 97th).
/// The paper's Figure 6 discussion orders applications by this. Zero traces
/// report 1.
double peak_to_percentile_ratio(const DemandTrace& t, double pct);

/// Coefficient of variation of demand (stddev / mean); 0 for a zero trace.
double coefficient_of_variation(const DemandTrace& t);

}  // namespace ropus::trace
