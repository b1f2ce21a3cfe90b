// Ablation: multi-attribute capacity management (the Section IX extension).
// CPU-only placement against placement that also honours memory, disk, and
// network capacity. With roomy servers the attribute checks are free; as
// server memory shrinks, placements spread out and the server count rises
// even though CPU alone would still pack tight. Exits 1 unless the 32 GiB
// pool needs more servers than the CPU-only one.
#include <iostream>

#include "common/table.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "qos/allocation.h"
#include "support.h"

int main() {
  using namespace ropus;

  const std::size_t weeks = bench::weeks_from_env();
  const qos::Requirement req = bench::paper_requirement(97.0, 30.0);
  const qos::CosCommitment cos2{0.95, 60.0};
  const auto multi_workloads = bench::case_study_multi(weeks, req, cos2);

  std::cout << "Ablation — multi-attribute placement "
               "(theta = 0.95, M = 97%, T_degr = 30 min)\n\n";

  // CPU-only reference.
  std::vector<qos::AllocationTrace> cpu_only;
  cpu_only.reserve(multi_workloads.size());
  for (const auto& w : multi_workloads) cpu_only.push_back(w.cpu());
  const placement::PlacementProblem cpu_problem(
      cpu_only, sim::homogeneous_pool(13, 16), cos2);
  const placement::ConsolidationReport cpu_report =
      placement::consolidate(cpu_problem, bench::bench_consolidation(11));

  TextTable table({"configuration", "servers", "C_requ CPU",
                   "peak memory GiB/server pool"});
  table.add_row({"cpu-only (paper)",
                 cpu_report.feasible ? std::to_string(cpu_report.servers_used)
                                     : "infeasible",
                 TextTable::num(cpu_report.total_required_capacity, 0), "-"});

  std::size_t tightest_servers = 0;  // the last (32 GiB) row
  for (double memory_gb : {96.0, 64.0, 48.0, 32.0}) {
    std::vector<sim::ServerSpec> pool = sim::homogeneous_pool(16, 16, "srv");
    for (sim::ServerSpec& server : pool) {
      server.memory_gb = memory_gb;
      server.disk_mbps = 800.0;
      server.network_mbps = 2000.0;
    }
    const placement::PlacementProblem problem(multi_workloads, std::move(pool),
                                              cos2);
    const placement::ConsolidationReport report = placement::consolidate(
        problem,
        bench::bench_consolidation(static_cast<std::uint64_t>(memory_gb)));
    table.add_row(
        {"cpu+mem+io, " + TextTable::num(memory_gb, 0) + " GiB/server",
         report.feasible ? std::to_string(report.servers_used)
                         : "infeasible",
         TextTable::num(report.total_required_capacity, 0),
         TextTable::num(memory_gb, 0)});
    tightest_servers = report.feasible ? report.servers_used : 0;
  }
  table.render(std::cout);

  std::cout << "\nreading: when memory per server shrinks, the memory "
               "attribute becomes the binding constraint and the pool needs "
               "more servers than CPU-only analysis suggests — the risk the "
               "paper's future-work section warns about\n";
  if (!cpu_report.feasible || tightest_servers <= cpu_report.servers_used) {
    std::cerr << "ablation_attributes: FAIL — the 32 GiB pool should need "
                 "more servers than the CPU-only pool\n";
    return 1;
  }
  return 0;
}
