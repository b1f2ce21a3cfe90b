// Descriptive-statistics kit used throughout R-Opus: percentiles and quantile
// curves (Figure 6) and simple summary statistics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ropus::stats {

/// Summary of a sample: count, mean, min/max, (population) standard deviation.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes a Summary over the sample. Empty input yields a zeroed Summary.
Summary summarize(std::span<const double> values);

/// Returns the q-quantile of the sample for q in [0, 1] using linear
/// interpolation between order statistics (type-7 / the numpy default).
/// Throws InvalidArgument on an empty sample or q outside [0, 1].
double quantile(std::span<const double> values, double q);

/// Percentile helper: percentile(values, 97.0) == quantile(values, 0.97).
double percentile(std::span<const double> values, double pct);

/// The smallest sample value x such that at least a fraction q of the
/// sample is <= x (an exact order statistic, no interpolation). Guarantees
/// #{v > x} <= (1 - q) * n, which the QoS translation needs to honour the
/// "at least M% of measurements acceptable" requirement exactly. Found by
/// selection in O(n). When x is a zero and the sample holds both -0.0 and
/// +0.0, which of the two is returned is unspecified (trace::DemandTrace
/// stores no -0.0).
double quantile_upper(std::span<const double> values, double q);

/// quantile_upper on the percentile scale.
double percentile_upper(std::span<const double> values, double pct);

/// Computes several quantiles in one sort of the data. `qs` entries must be in
/// [0, 1]. Result is ordered like `qs`.
std::vector<double> quantiles(std::span<const double> values,
                              std::span<const double> qs);

/// Exact maximum of a non-empty sample. Throws InvalidArgument when empty.
double max_value(std::span<const double> values);

}  // namespace ropus::stats
