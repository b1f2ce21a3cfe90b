#include "core/plan_export.h"

#include "common/json.h"

namespace ropus {

std::string to_json(const CapacityPlan& plan) {
  json::Writer w;
  w.begin_object();
  w.key("servers_used").value(plan.servers_used);
  w.key("total_peak_allocation").value(plan.total_peak_allocation);
  w.key("total_required_capacity").value(plan.total_required_capacity);
  w.key("feasible").value(plan.consolidation.feasible);
  w.key("healthy").value(plan.healthy());

  w.key("applications").begin_array();
  for (const ApplicationPlan& app : plan.applications) {
    w.begin_object();
    w.key("name").value(app.name);
    w.key("server").value(app.assigned_server);
    w.key("breakpoint_p").value(app.translation.breakpoint_p);
    w.key("d_max").value(app.translation.d_max);
    w.key("d_new_max").value(app.translation.d_new_max);
    w.key("peak_allocation").value(app.peak_allocation);
    w.key("peak_cos1_allocation").value(app.peak_cos1_allocation);
    w.key("degraded_fraction").value(app.degraded_fraction);
    w.end_object();
  }
  w.end_array();

  w.key("placement").begin_array();
  for (std::size_t s = 0; s < plan.consolidation.evaluation.servers.size();
       ++s) {
    const auto& se = plan.consolidation.evaluation.servers[s];
    if (!se.used) continue;
    w.begin_object();
    w.key("server").value(s);
    w.key("required_capacity").value(se.required_capacity);
    w.key("utilization").value(se.utilization);
    w.key("binding").begin_object();
    w.key("kind").value(sim::kind_name(se.binding.kind));
    if (se.binding.kind == sim::Binding::Kind::kTheta) {
      w.key("week").value(se.binding.week);
      w.key("slot").value(se.binding.slot);
    } else if (se.binding.kind == sim::Binding::Kind::kDeadline) {
      w.key("slot").value(se.binding.slot);
      w.key("backlog").value(se.binding.backlog);
    }
    w.end_object();
    w.key("workloads").begin_array();
    for (std::size_t idx : se.workloads) {
      w.value(plan.applications[idx].name);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("failover");
  if (!plan.failover.has_value()) {
    w.null();
  } else {
    w.begin_object();
    w.key("spare_needed").value(plan.failover->spare_needed);
    w.key("outcomes").begin_array();
    for (const failover::FailureOutcome& o : plan.failover->outcomes) {
      w.begin_object();
      w.key("failed_server").value(o.failed_server);
      w.key("supported").value(o.supported);
      w.key("affected_apps").value(o.affected_apps.size());
      w.key("survivors").value(o.surviving_servers.size());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  return w.str();
}

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
