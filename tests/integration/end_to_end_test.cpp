// End-to-end integration: synthetic fleet -> QoS translation -> placement ->
// replay validation through both the Section VI-A simulator and the
// workload-manager execution simulation.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "placement/baselines.h"
#include "placement/consolidator.h"
#include "qos/allocation.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "wlm/compliance.h"
#include "wlm/controller.h"
#include "workload/fleet.h"

namespace ropus {
namespace {

using trace::Calendar;

struct Harness {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocations;
  qos::CosCommitment cos2{0.9, 60.0};
  qos::Requirement req;
};

Harness make_setup(std::size_t apps, double theta) {
  Harness s;
  s.req.u_low = 0.5;
  s.req.u_high = 0.66;
  s.req.u_degr = 0.9;
  s.req.m_percent = 97.0;
  s.req.t_degr_minutes = 30.0;
  s.cos2 = qos::CosCommitment{theta, 60.0};
  auto all = workload::case_study_traces(Calendar(1, 5), 2006);
  for (std::size_t i = 0; i < apps; ++i) {
    s.demands.push_back(std::move(all[i]));
  }
  for (const auto& d : s.demands) {
    s.allocations.emplace_back(d, qos::translate(d, s.req, s.cos2));
  }
  return s;
}

placement::ConsolidationConfig fast_consolidation() {
  placement::ConsolidationConfig cfg;
  cfg.genetic.population = 16;
  cfg.genetic.max_generations = 40;
  cfg.genetic.stagnation_limit = 10;
  return cfg;
}

TEST(EndToEnd, ConsolidationSavesCapacityVsPeaks) {
  Harness s = make_setup(8, 0.9);
  const placement::PlacementProblem problem(
      s.allocations, sim::homogeneous_pool(8, 16), s.cos2);
  const placement::ConsolidationReport report =
      placement::consolidate(problem, fast_consolidation());
  ASSERT_TRUE(report.feasible);
  EXPECT_LT(report.servers_used, 8u);
  EXPECT_LT(report.total_required_capacity, report.total_peak_allocation);
}

TEST(EndToEnd, PlacedServersSatisfyCommitmentsOnReplay) {
  Harness s = make_setup(8, 0.9);
  const placement::PlacementProblem problem(
      s.allocations, sim::homogeneous_pool(8, 16), s.cos2);
  const placement::ConsolidationReport report =
      placement::consolidate(problem, fast_consolidation());
  ASSERT_TRUE(report.feasible);

  const auto by_server = placement::workloads_by_server(report.assignment, 8);
  for (std::size_t srv = 0; srv < by_server.size(); ++srv) {
    if (by_server[srv].empty()) continue;
    std::vector<const qos::AllocationTrace*> hosted;
    for (std::size_t w : by_server[srv]) hosted.push_back(&s.allocations[w]);
    const sim::Aggregate agg =
        sim::aggregate_workloads(hosted, s.demands[0].calendar());
    const sim::Evaluation ev = sim::evaluate(agg, 16.0, s.cos2);
    EXPECT_TRUE(ev.satisfies(s.cos2)) << "server " << srv;
    // The reported per-server required capacity must hold on re-evaluation.
    const double required =
        report.evaluation.servers[srv].required_capacity;
    EXPECT_TRUE(sim::evaluate(agg, required, s.cos2).satisfies(s.cos2))
        << "server " << srv;
  }
}

TEST(EndToEnd, ClairvoyantWlmRunHonoursQosOnEveryServer) {
  // At theta 0.2 every app carries CoS1, and the placement puts one server
  // at its aggregate CoS1 peak: a grid step less cuts CoS1 there.
  Harness s = make_setup(6, 0.2);
  const placement::PlacementProblem problem(
      s.allocations, sim::homogeneous_pool(6, 16), s.cos2);
  const placement::ConsolidationReport report =
      placement::consolidate(problem, fast_consolidation());
  ASSERT_TRUE(report.feasible);
  for (const qos::AllocationTrace& a : s.allocations) {
    ASSERT_GT(a.peak_cos1(), 0.0);
  }
  bool cos1_bound = false;
  for (std::size_t srv = 0; srv < problem.server_count(); ++srv) {
    const placement::ServerEvaluation& e = report.evaluation.servers[srv];
    if (!e.used) continue;
    std::printf("server %zu: %zu apps, %.5f CPUs, binding %s\n", srv,
                e.workloads.size(), e.required_capacity,
                sim::to_string(e.binding).c_str());
    cos1_bound = cos1_bound || e.binding.kind == sim::Binding::Kind::kCos1Peak;
  }
  ASSERT_TRUE(cos1_bound);

  // Each server runs at exactly the capacity the placement says it
  // requires. Every app's clairvoyant controller steps beside the others,
  // and each slot's requests are granted per server through the slo
  // kernel's rule.
  const std::size_t apps = s.demands.size();
  const std::size_t servers = problem.server_count();
  const std::size_t slots = s.demands[0].calendar().size();
  std::vector<wlm::Controller> controllers;
  for (const qos::AllocationTrace& a : s.allocations) {
    controllers.emplace_back(a.translation(), wlm::Policy::kClairvoyant);
  }
  std::vector<std::vector<double>> granted(apps, std::vector<double>(slots));
  std::vector<wlm::AllocationRequest> requests(apps);
  for (std::size_t i = 0; i < slots; ++i) {
    std::vector<double> cos1(servers, 0.0);
    std::vector<double> cos2(servers, 0.0);
    for (std::size_t a = 0; a < apps; ++a) {
      requests[a] =
          controllers[a].observe(wlm::Observation::ok(s.demands[a][i]));
      cos1[report.assignment[a]] += requests[a].cos1;
      cos2[report.assignment[a]] += requests[a].cos2;
    }
    std::vector<slo::GrantScales> scales;
    for (std::size_t srv = 0; srv < servers; ++srv) {
      scales.push_back(slo::grant_scales(
          report.evaluation.servers[srv].required_capacity, cos1[srv],
          cos2[srv]));
      // The placement leaves room for every CoS1 request: no server ever
      // scales CoS1 back.
      ASSERT_EQ(scales[srv].cos1, 1.0) << "server " << srv << " slot " << i;
    }
    for (std::size_t a = 0; a < apps; ++a) {
      granted[a][i] = scales[report.assignment[a]].grant(requests[a].cos1,
                                                          requests[a].cos2);
      ASSERT_FALSE(slo::cos1_overcommitted(requests[a].cos1, granted[a][i]))
          << s.demands[a].name() << " slot " << i;
    }
  }

  const auto minutes =
      static_cast<double>(s.demands[0].calendar().minutes_per_sample());
  for (std::size_t a = 0; a < apps; ++a) {
    const wlm::ComplianceReport compliance = slo::accumulate_bands(
        s.demands[a].values(), granted[a], wlm::band_of(s.req), minutes);
    // The theta commitment is an average over the days of a week-slot
    // group, so individual intervals may receive less than theta even at
    // the required capacity (the deadline term covers the deferral).
    // Ask for the planning-level guarantee plus a small execution slack:
    // mostly acceptable, degraded within budget + 2%, and only a sliver
    // of intervals beyond U_degr.
    const double active =
        static_cast<double>(compliance.intervals - compliance.idle);
    const double violating_share =
        active > 0.0 ? static_cast<double>(compliance.violating) / active
                     : 0.0;
    EXPECT_LE(violating_share, 0.01) << s.demands[a].name();
    EXPECT_LE(compliance.degraded_fraction() * 100.0,
              s.req.m_degr_percent() + 2.0)
        << s.demands[a].name();
  }
}

TEST(EndToEnd, GaAtLeastAsGoodAsGreedyBaselines) {
  Harness s = make_setup(10, 0.9);
  const placement::PlacementProblem problem(
      s.allocations, sim::homogeneous_pool(10, 16), s.cos2);
  const placement::ConsolidationReport ga =
      placement::consolidate(problem, fast_consolidation());
  ASSERT_TRUE(ga.feasible);
  const auto ffd = placement::first_fit_decreasing(problem);
  ASSERT_TRUE(ffd.has_value());
  EXPECT_LE(ga.servers_used,
            placement::servers_used(*ffd, problem.server_count()));
}

TEST(EndToEnd, HigherThetaNeverRaisesPeakAllocations) {
  // Section V: higher theta -> smaller or equal maximum allocations under
  // time-limited degradation.
  Harness lo = make_setup(8, 0.6);
  Harness hi = make_setup(8, 0.95);
  for (std::size_t i = 0; i < lo.allocations.size(); ++i) {
    EXPECT_LE(hi.allocations[i].peak_allocation(),
              lo.allocations[i].peak_allocation() + 1e-9)
        << lo.demands[i].name();
  }
}

}  // namespace
}  // namespace ropus
