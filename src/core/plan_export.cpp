#include "core/plan_export.h"

#include "common/json.h"

namespace ropus {

std::string to_json(const CapacityPlanningReport& report) {
  json::Writer w;
  w.begin_object();
  w.key("exhaustion_week");
  if (report.exhaustion_week.has_value()) {
    w.value(*report.exhaustion_week);
  } else {
    w.null();
  }
  w.key("servers_at_horizon").value(report.servers_at_horizon());
  w.key("points").begin_array();
  for (const CapacityForecastPoint& p : report.points) {
    w.begin_object();
    w.key("week").value(p.week);
    w.key("mean_demand_scale").value(p.mean_demand_scale);
    w.key("feasible").value(p.feasible);
    w.key("servers_used").value(p.servers_used);
    w.key("total_required_capacity").value(p.total_required_capacity);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ropus
