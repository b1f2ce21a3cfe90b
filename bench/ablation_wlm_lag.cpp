// Ablation: what the workload manager's reaction lag costs. QoS translation
// plans for allocations that track demand exactly (clairvoyant); the real
// control loop of Section II allocates from the *previous* interval's
// measurement. This bench quantifies the compliance gap across the
// consolidated pool.
#include <iostream>
#include <vector>

#include "common/table.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "qos/allocation.h"
#include "support.h"
#include "wlm/compliance.h"
#include "wlm/failure_drill.h"

int main() {
  using namespace ropus;

  const auto demands = bench::case_study(bench::weeks_from_env());
  const qos::Requirement req = bench::paper_requirement(97.0, 30.0);
  const qos::CosCommitment cos2{0.95, 60.0};
  const auto allocations = qos::build_allocations(demands, req, cos2);
  const auto pool = sim::homogeneous_pool(13, 16);
  const placement::PlacementProblem problem(allocations, pool, cos2);
  const placement::ConsolidationReport placed =
      placement::consolidate(problem, bench::bench_consolidation(3));
  if (!placed.feasible) {
    std::cout << "placement infeasible; nothing to simulate\n";
    return 1;
  }

  std::cout << "Ablation — workload-manager reaction lag on the "
               "consolidated placement (theta = 0.95)\n\n";

  TextTable table({"policy", "mean degraded %", "worst degraded %",
                   "violating %", "unserved CPU-intervals"});

  // The consolidated placement as one schedule phase: every server runs
  // its hosted containers for the whole trace.
  wlm::SchedulePhase phase;
  phase.hosts = placed.assignment;
  phase.failure_mode.assign(demands.size(), false);
  phase.down.assign(pool.size(), false);
  std::vector<qos::Translation> translations;
  for (const qos::AllocationTrace& a : allocations) {
    translations.push_back(a.translation());
  }

  struct PolicyCase {
    const char* label;
    wlm::Policy policy;
    std::size_t window;
  };
  const PolicyCase cases[] = {
      {"clairvoyant", wlm::Policy::kClairvoyant, 1},
      {"reactive", wlm::Policy::kReactive, 1},
      {"windowed-max(3)", wlm::Policy::kWindowedMax, 3},
      {"windowed-max(6)", wlm::Policy::kWindowedMax, 6},
  };
  for (const PolicyCase& pc : cases) {
    double sum_degraded = 0.0;
    double worst_degraded = 0.0;
    double sum_violating = 0.0;

    const wlm::ScheduleResult run = wlm::run_event_schedule(
        demands, translations, translations, pool, std::span(&phase, 1), {},
        pc.policy, pc.window);
    for (std::size_t a = 0; a < demands.size(); ++a) {
      const wlm::ComplianceReport& rep = run.apps[a].normal_mode;
      const double active = static_cast<double>(rep.intervals - rep.idle);
      const double degraded = 100.0 * rep.degraded_fraction();
      sum_degraded += degraded;
      worst_degraded = std::max(worst_degraded, degraded);
      sum_violating +=
          active > 0.0 ? 100.0 * static_cast<double>(rep.violating) / active
                       : 0.0;
    }
    const double n = static_cast<double>(demands.size());
    table.add_row({pc.label, TextTable::num(sum_degraded / n, 2),
                   TextTable::num(worst_degraded, 2),
                   TextTable::num(sum_violating / n, 2),
                   TextTable::num(run.unserved_demand, 1)});
  }
  table.render(std::cout);

  std::cout << "\nreading: the clairvoyant loop realizes the planned QoS; "
               "the reactive loop pays a lag penalty on bursty workloads — "
               "the burst factor exists to absorb exactly this\n";
  return 0;
}
