#include "trace/trace_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace ropus::trace {
namespace {

Calendar tiny() { return Calendar(1, 720); }  // 14 observations

TEST(PercentileCurve, NormalizesToPeak) {
  std::vector<double> v(tiny().size(), 1.0);
  v[0] = 10.0;  // peak
  const DemandTrace t("t", tiny(), v);
  const std::vector<double> pcts{50.0, 100.0};
  const PercentileCurve curve = percentile_curve(t, pcts);
  ASSERT_EQ(curve.normalized_demand.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.normalized_demand[1], 100.0);
  EXPECT_DOUBLE_EQ(curve.normalized_demand[0], 10.0);  // 1.0 / 10.0 * 100
}

TEST(PercentileCurve, ZeroTraceNormalizesToZero) {
  const DemandTrace t = DemandTrace::zeros("z", tiny());
  const std::vector<double> pcts{97.0};
  const PercentileCurve curve = percentile_curve(t, pcts);
  EXPECT_DOUBLE_EQ(curve.normalized_demand[0], 0.0);
}

TEST(PeakToPercentile, BurstyTraceHasHighRatio) {
  std::vector<double> flat(tiny().size(), 2.0);
  std::vector<double> bursty(tiny().size(), 2.0);
  bursty[5] = 20.0;
  EXPECT_DOUBLE_EQ(
      peak_to_percentile_ratio(DemandTrace("f", tiny(), flat), 90.0), 1.0);
  EXPECT_GT(peak_to_percentile_ratio(DemandTrace("b", tiny(), bursty), 90.0),
            2.0);
}

TEST(PeakToPercentile, ZeroTraceIsOne) {
  EXPECT_DOUBLE_EQ(
      peak_to_percentile_ratio(DemandTrace::zeros("z", tiny()), 97.0), 1.0);
}

TEST(CoefficientOfVariation, FlatIsZero) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation(DemandTrace(
                       "f", tiny(), std::vector<double>(tiny().size(), 5.0))),
                   0.0);
  EXPECT_DOUBLE_EQ(coefficient_of_variation(DemandTrace::zeros("z", tiny())),
                   0.0);
}

}  // namespace
}  // namespace ropus::trace
