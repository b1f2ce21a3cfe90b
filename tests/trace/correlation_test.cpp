#include "trace/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"

namespace ropus::trace {
namespace {

Calendar hourly() { return Calendar(1, 60); }

DemandTrace sine_trace(const std::string& name, double phase) {
  std::vector<double> v(hourly().size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 2.0 + std::sin(static_cast<double>(i) * 0.3 + phase);
  }
  return DemandTrace(name, hourly(), std::move(v));
}

TEST(Correlation, SelfIsOne) {
  const DemandTrace t = sine_trace("a", 0.0);
  EXPECT_NEAR(correlation(t, t), 1.0, 1e-12);
}

TEST(Correlation, AntiphaseIsNegative) {
  const DemandTrace a = sine_trace("a", 0.0);
  const DemandTrace b = sine_trace("b", std::numbers::pi);
  EXPECT_LT(correlation(a, b), -0.9);
}

TEST(Correlation, ConstantTraceIsZero) {
  const DemandTrace a = sine_trace("a", 0.0);
  const DemandTrace flat("f", hourly(),
                         std::vector<double>(hourly().size(), 3.0));
  EXPECT_DOUBLE_EQ(correlation(a, flat), 0.0);
  EXPECT_DOUBLE_EQ(correlation(flat, flat), 0.0);
}

TEST(Correlation, RequiresSharedCalendar) {
  const DemandTrace a = sine_trace("a", 0.0);
  const DemandTrace b = DemandTrace::zeros("b", Calendar(2, 60));
  EXPECT_THROW(correlation(a, b), InvalidArgument);
}

TEST(CorrelationMatrix, SymmetricWithUnitDiagonal) {
  std::vector<DemandTrace> traces{sine_trace("a", 0.0),
                                  sine_trace("b", 1.0),
                                  sine_trace("c", 2.0)};
  const auto m = correlation_matrix(traces);
  ASSERT_EQ(m.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 1.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
      EXPECT_LE(std::abs(m[i][j]), 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace ropus::trace
