// JSON export of capacity plans.
#include "core/plan_export.h"

#include <gtest/gtest.h>

#include "core/capacity_planner.h"

namespace ropus {
namespace {

// Structural JSON sanity: balanced braces/brackets outside strings.
void expect_balanced(const std::string& doc) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(PlanExport, PlanningReportJson) {
  CapacityPlanningReport report;
  CapacityForecastPoint p;
  p.week = 4;
  p.mean_demand_scale = 1.1;
  p.feasible = true;
  p.servers_used = 3;
  p.total_required_capacity = 40.5;
  report.points.push_back(p);
  report.exhaustion_week = 8;

  const std::string doc = to_json(report);
  expect_balanced(doc);
  EXPECT_NE(doc.find("\"exhaustion_week\":8"), std::string::npos);
  EXPECT_NE(doc.find("\"week\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"total_required_capacity\":40.5"),
            std::string::npos);

  report.exhaustion_week.reset();
  EXPECT_NE(to_json(report).find("\"exhaustion_week\":null"),
            std::string::npos);
}

}  // namespace
}  // namespace ropus
