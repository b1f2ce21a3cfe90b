#include "trace/demand_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/stats.h"

namespace ropus::trace {
namespace {

Calendar tiny() { return Calendar(1, 720); }  // 2 slots/day, 14 observations

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(DemandTrace, ConstructionValidatesLength) {
  EXPECT_THROW(DemandTrace("x", tiny(), std::vector<double>(3, 1.0)),
               InvalidArgument);
}

TEST(DemandTrace, ConstructionRejectsNegativeAndNonFinite) {
  std::vector<double> v(tiny().size(), 1.0);
  v[3] = -0.5;
  EXPECT_THROW(DemandTrace("x", tiny(), v), InvalidArgument);
  v[3] = std::nan("");
  EXPECT_THROW(DemandTrace("x", tiny(), v), InvalidArgument);
  v[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DemandTrace("x", tiny(), v), InvalidArgument);
}

TEST(DemandTrace, NegativeZeroIsStoredAsPositiveZero) {
  // The sign-of-zero decision behind selecting D_M% instead of sorting:
  // with no -0.0 stored, every zero order statistic of a trace is +0.0.
  std::vector<double> v(tiny().size(), 0.0);
  for (std::size_t i = 0; i < v.size(); i += 2) v[i] = -0.0;
  v[5] = 2.0;
  const DemandTrace t("t", tiny(), v);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_FALSE(std::signbit(t[i])) << i;
  }
  EXPECT_EQ(t[5], 2.0);
  for (const double q : {0.0, 0.5, 0.9}) {
    const double x = stats::quantile_upper(t.values(), q);
    EXPECT_EQ(x, 0.0) << q;
    EXPECT_FALSE(std::signbit(x)) << q;
  }

  // assign_scaled keeps it: a -0.0 factor stores +0.0.
  DemandTrace scaled = DemandTrace::zeros("s", tiny());
  std::vector<double> factors(tiny().size(), 1.0);
  factors[5] = -0.0;
  scaled.assign_scaled(t, factors);
  EXPECT_EQ(scaled[5], 0.0);
  EXPECT_FALSE(std::signbit(scaled[5]));
}

TEST(DemandTrace, ZerosAndPeak) {
  const DemandTrace z = DemandTrace::zeros("z", tiny());
  EXPECT_EQ(z.size(), tiny().size());
  EXPECT_DOUBLE_EQ(z.peak(), 0.0);

  const DemandTrace r("r", tiny(), ramp(tiny().size()));
  EXPECT_DOUBLE_EQ(r.peak(), static_cast<double>(tiny().size() - 1));
}

TEST(DemandTrace, CalendarAccessor) {
  const DemandTrace r("r", tiny(), ramp(tiny().size()));
  EXPECT_DOUBLE_EQ(r.at(0, 1, 1), 3.0);  // index (0,1,1) = 1*2+1 = 3
}

TEST(DemandTrace, AdditionRequiresSameCalendar) {
  DemandTrace a = DemandTrace::zeros("a", tiny());
  const DemandTrace b = DemandTrace::zeros("b", Calendar(2, 720));
  EXPECT_THROW(a += b, InvalidArgument);
}

TEST(DemandTrace, AdditionIsElementWise) {
  DemandTrace a("a", tiny(), ramp(tiny().size()));
  const DemandTrace b("b", tiny(), ramp(tiny().size()));
  a += b;
  EXPECT_DOUBLE_EQ(a[5], 10.0);
}

TEST(DemandTrace, ScaledAndCapped) {
  const DemandTrace r("r", tiny(), ramp(tiny().size()));
  const DemandTrace s = r.scaled(2.0);
  EXPECT_DOUBLE_EQ(s[3], 6.0);
  EXPECT_THROW(r.scaled(-1.0), InvalidArgument);
}

TEST(DemandTrace, AggregateSumsAll) {
  std::vector<DemandTrace> traces;
  traces.emplace_back("a", tiny(), ramp(tiny().size()));
  traces.emplace_back("b", tiny(), std::vector<double>(tiny().size(), 1.0));
  const DemandTrace total = aggregate(traces, "total");
  EXPECT_EQ(total.name(), "total");
  EXPECT_DOUBLE_EQ(total[4], 5.0);
}

TEST(DemandTrace, AggregateOfNothingThrows) {
  EXPECT_THROW(aggregate({}, "x"), InvalidArgument);
}

TEST(DemandTrace, WeeksSliceSelectsTheRightWindow) {
  const Calendar three(3, 720);  // 14 obs/week
  std::vector<double> v(three.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const DemandTrace t("t", three, std::move(v));

  const DemandTrace middle = weeks_slice(t, 1, 1);
  EXPECT_EQ(middle.calendar().weeks(), 1u);
  EXPECT_DOUBLE_EQ(middle[0], 14.0);
  EXPECT_DOUBLE_EQ(middle[13], 27.0);

  const DemandTrace last_two = weeks_slice(t, 1, 2);
  EXPECT_EQ(last_two.calendar().weeks(), 2u);
  EXPECT_DOUBLE_EQ(last_two[last_two.size() - 1], t[t.size() - 1]);

  // Consistency with head/tail.
  const DemandTrace head = head_weeks(t, 2);
  const DemandTrace slice = weeks_slice(t, 0, 2);
  for (std::size_t i = 0; i < head.size(); i += 5) {
    EXPECT_DOUBLE_EQ(head[i], slice[i]);
  }
}

TEST(DemandTrace, WeeksSliceValidatesBounds) {
  const DemandTrace t = DemandTrace::zeros("z", Calendar(2, 720));
  EXPECT_THROW(weeks_slice(t, 0, 0), InvalidArgument);
  EXPECT_THROW(weeks_slice(t, 1, 2), InvalidArgument);
  EXPECT_THROW(weeks_slice(t, 2, 1), InvalidArgument);
  EXPECT_NO_THROW(weeks_slice(t, 1, 1));
}

}  // namespace
}  // namespace ropus::trace
