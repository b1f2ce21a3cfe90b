#include "workload/whatif.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace ropus::workload {
namespace {

using trace::Calendar;
using trace::DemandTrace;

Calendar hourly() { return Calendar(1, 60); }  // 24 slots/day

DemandTrace ramp_trace() {
  std::vector<double> v(hourly().size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  return DemandTrace("ramp", hourly(), std::move(v));
}

TEST(TimeShift, RotatesWithinTheWeek) {
  const DemandTrace t = ramp_trace();
  const DemandTrace shifted = time_shift(t, 120.0);  // 2 slots forward
  // Observation 2 now shows what was at 0.
  EXPECT_DOUBLE_EQ(shifted[2], t[0]);
  EXPECT_DOUBLE_EQ(shifted[10], t[8]);
  // Wrap: the first observations come from the end of the week.
  EXPECT_DOUBLE_EQ(shifted[0], t[t.size() - 2]);
}

TEST(TimeShift, NegativeShiftRotatesBackward) {
  const DemandTrace t = ramp_trace();
  const DemandTrace shifted = time_shift(t, -60.0);
  EXPECT_DOUBLE_EQ(shifted[0], t[1]);
}

TEST(TimeShift, FullWeekIsIdentity) {
  const DemandTrace t = ramp_trace();
  const DemandTrace shifted = time_shift(t, 7.0 * 24.0 * 60.0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_DOUBLE_EQ(shifted[i], t[i]);
  }
}

TEST(TimeShift, RejectsNonMultipleOfInterval) {
  EXPECT_THROW(time_shift(ramp_trace(), 90.0), InvalidArgument);
}

TEST(Scenario, ScaleRemoveAdd) {
  std::vector<DemandTrace> fleet;
  fleet.push_back(DemandTrace("a", hourly(),
                              std::vector<double>(hourly().size(), 1.0)));
  fleet.push_back(DemandTrace("b", hourly(),
                              std::vector<double>(hourly().size(), 2.0)));
  fleet.push_back(DemandTrace("c", hourly(),
                              std::vector<double>(hourly().size(), 3.0)));

  Scenario s;
  s.scale = {2.0, 1.0, 1.0};
  s.removals = {1};
  s.additions.push_back(DemandTrace(
      "new", hourly(), std::vector<double>(hourly().size(), 4.0)));

  const auto result = apply_scenario(fleet, s);
  ASSERT_EQ(result.size(), 3u);  // a (scaled), c, new
  EXPECT_DOUBLE_EQ(result[0][0], 2.0);
  EXPECT_DOUBLE_EQ(result[1][0], 3.0);
  EXPECT_EQ(result[2].name(), "new");
}

TEST(Scenario, ValidatesShape) {
  std::vector<DemandTrace> fleet;
  fleet.push_back(DemandTrace::zeros("a", hourly()));
  Scenario s;
  s.scale = {1.0, 1.0};  // wrong arity
  EXPECT_THROW(apply_scenario(fleet, s), InvalidArgument);
  s = Scenario{};
  s.removals = {5};
  EXPECT_THROW(apply_scenario(fleet, s), InvalidArgument);
  s = Scenario{};
  s.additions.push_back(DemandTrace::zeros("x", Calendar(2, 60)));
  EXPECT_THROW(apply_scenario(fleet, s), InvalidArgument);
}

TEST(Scenario, EmptyScenarioIsIdentity) {
  std::vector<DemandTrace> fleet;
  fleet.push_back(DemandTrace("a", hourly(),
                              std::vector<double>(hourly().size(), 1.5)));
  const auto result = apply_scenario(fleet, Scenario{});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0][7], 1.5);
}

}  // namespace
}  // namespace ropus::workload
