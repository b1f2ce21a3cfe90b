// Descriptive-statistics kit used throughout R-Opus: percentiles and quantile
// curves (Figure 6), run-length analysis (the T_degr trace analysis of
// Section V), and simple summary statistics.
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

/// A maximal run of consecutive indices whose values satisfy a predicate:
/// [begin, begin + length) all matched.
struct Run {
  std::size_t begin = 0;
  std::size_t length = 0;
};

/// Returns all maximal runs of consecutive `true` entries. (Takes a
/// std::vector<bool> by reference: its packed representation cannot form a
/// std::span.)
std::vector<Run> find_runs(const std::vector<bool>& flags);

/// Returns the length of the longest run of `true` entries (0 if none).
std::size_t longest_run(const std::vector<bool>& flags);

/// Fraction of entries that are `true`; 0 for an empty input.
double fraction_true(const std::vector<bool>& flags);

/// Exact maximum of a non-empty sample. Throws InvalidArgument when empty.
double max_value(std::span<const double> values);

/// Sum of the sample (0 when empty), accumulated with Kahan compensation so
/// that week-long 5-minute traces don't lose low bits.
double sum(std::span<const double> values);

}  // namespace ropus::stats
