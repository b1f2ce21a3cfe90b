// JSON export of capacity plans.
#include "core/plan_export.h"

#include <gtest/gtest.h>

#include "core/capacity_planner.h"
#include "workload/fleet.h"

namespace ropus {
namespace {

using trace::Calendar;

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

CapacityPlan make_plan(bool with_failover) {
  qos::PoolCommitments commitments;
  commitments.cos2 = qos::CosCommitment{0.9, 60.0};
  Pool pool(commitments, sim::homogeneous_pool(5, 16));
  auto traces = workload::case_study_traces(Calendar(1, 5), 2006);
  for (std::size_t i = 0; i < 5; ++i) {
    qos::ApplicationQos q;
    q.app_name = traces[i].name();
    q.normal.m_percent = 97.0;
    q.failure = q.normal;
    q.failure.u_low = 0.6;
    q.failure.u_high = 0.8;
    q.failure.u_degr = 0.95;
    pool.add_application(std::move(traces[i]), q);
  }
  PlanOptions opts;
  opts.consolidation.genetic.population = 16;
  opts.consolidation.genetic.max_generations = 30;
  opts.consolidation.genetic.stagnation_limit = 8;
  opts.plan_failures = with_failover;
  opts.failover.normal.genetic = opts.consolidation.genetic;
  opts.failover.failure.genetic = opts.consolidation.genetic;
  return pool.plan(opts);
}

TEST(PlanExport, CapacityPlanJsonHasKeySections) {
  const std::string doc = to_json(make_plan(true));
  expect_balanced(doc);
  for (const char* needle :
       {"\"servers_used\"", "\"applications\"", "\"placement\"",
        "\"failover\"", "\"spare_needed\"", "\"breakpoint_p\"",
        "\"app-01\""}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  }
}

TEST(PlanExport, PlacementNamesEachServersBinding) {
  const CapacityPlan plan = make_plan(false);
  const std::string doc = to_json(plan);
  std::size_t bindings = 0;
  for (std::size_t at = doc.find("\"binding\":{\"kind\":\"");
       at != std::string::npos;
       at = doc.find("\"binding\":{\"kind\":\"", at + 1)) {
    ++bindings;
  }
  EXPECT_EQ(bindings, plan.servers_used);
}

TEST(PlanExport, NoFailoverSerializesNull) {
  const std::string doc = to_json(make_plan(false));
  expect_balanced(doc);
  EXPECT_NE(doc.find("\"failover\":null"), std::string::npos);
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
