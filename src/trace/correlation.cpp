#include "trace/correlation.h"

#include <cmath>

#include "common/error.h"

namespace ropus::trace {

double correlation(const DemandTrace& a, const DemandTrace& b) {
  ROPUS_REQUIRE(a.calendar() == b.calendar(),
                "correlation needs traces on one calendar");
  const std::size_t n = a.size();
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);

  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

std::vector<std::vector<double>> correlation_matrix(
    std::span<const DemandTrace> traces) {
  const std::size_t n = traces.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double c =
          i == j ? 1.0 : correlation(traces[i], traces[j]);
      matrix[i][j] = c;
      matrix[j][i] = c;
    }
  }
  return matrix;
}

}  // namespace ropus::trace
