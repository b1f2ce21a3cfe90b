#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ropus::stats {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double total = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (double v : values) {
    total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = total / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) {
    const double d = v - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(ss / static_cast<double>(values.size()));
  return s;
}

namespace {
double quantile_sorted(std::span<const double> sorted, double q) {
  const auto n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}
}  // namespace

double quantile(std::span<const double> values, double q) {
  ROPUS_REQUIRE(!values.empty(), "quantile of empty sample");
  ROPUS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double percentile(std::span<const double> values, double pct) {
  ROPUS_REQUIRE(pct >= 0.0 && pct <= 100.0, "percentile must be in [0,100]");
  return quantile(values, pct / 100.0);
}

double quantile_upper(std::span<const double> values, double q) {
  ROPUS_REQUIRE(!values.empty(), "quantile of empty sample");
  ROPUS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::vector<double> sample(values.begin(), values.end());
  const double n = static_cast<double>(sample.size());
  // Smallest 0-based index k with (k + 1) / n >= q.
  const double target = q * n - 1.0;
  std::size_t k = target <= 0.0
                      ? 0
                      : static_cast<std::size_t>(std::ceil(target - 1e-9));
  k = std::min(k, sample.size() - 1);
  // Selection puts the k-th order statistic in place without sorting the
  // rest; it equals sorted[k] (up to the sign of a zero, see stats.h).
  const auto kth = sample.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(sample.begin(), kth, sample.end());
  return *kth;
}

double percentile_upper(std::span<const double> values, double pct) {
  ROPUS_REQUIRE(pct >= 0.0 && pct <= 100.0, "percentile must be in [0,100]");
  return quantile_upper(values, pct / 100.0);
}

std::vector<double> quantiles(std::span<const double> values,
                              std::span<const double> qs) {
  ROPUS_REQUIRE(!values.empty(), "quantiles of empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    ROPUS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
    out.push_back(quantile_sorted(sorted, q));
  }
  return out;
}

double max_value(std::span<const double> values) {
  ROPUS_REQUIRE(!values.empty(), "max of empty sample");
  return *std::max_element(values.begin(), values.end());
}

}  // namespace ropus::stats
