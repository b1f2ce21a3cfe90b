#include <string>
#include <vector>

#include "cli/cli_util.h"
#include "cli/commands.h"
#include "common/table.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "qos/allocation.h"

namespace ropus::cli {

namespace {
placement::ConsolidationConfig consolidation_from_flags(const Flags& flags) {
  placement::ConsolidationConfig cfg;
  cfg.genetic.population = flags.get_size("population", 32);
  cfg.genetic.max_generations = flags.get_size("generations", 250);
  cfg.genetic.stagnation_limit = flags.get_size("stagnation", 30);
  cfg.genetic.seed =
      static_cast<std::uint64_t>(flags.get_size("search-seed", 1));
  return cfg;
}
}  // namespace

int cmd_consolidate(const Flags& flags, std::ostream& out,
                    std::ostream& err) {
  const std::vector<std::string> allowed{
      "traces",  "theta",       "deadline",   "ulow",       "uhigh",
      "udegr",   "m",           "tdegr",      "epochs",     "servers",
      "cpus",    "population",  "generations", "stagnation", "search-seed"};
  if (!check_flags(flags, allowed, err)) return 1;
  const auto traces = load_traces(flags);
  const qos::Requirement req = requirement_from_flags(flags);
  const qos::CosCommitment cos2 = cos2_from_flags(flags);
  const std::size_t servers = flags.get_size("servers", 13);
  const std::size_t cpus = flags.get_size("cpus", 16);

  const auto allocations = qos::build_allocations(traces, req, cos2);
  const placement::PlacementProblem problem(
      allocations, sim::homogeneous_pool(servers, cpus), cos2);
  const placement::ConsolidationReport report =
      placement::consolidate(problem, consolidation_from_flags(flags));

  if (!report.feasible) {
    err << "no feasible placement found on " << servers << " " << cpus
        << "-way servers\n";
    return 2;
  }

  out << "placed " << traces.size() << " workloads on "
      << report.servers_used << " of " << servers << " " << cpus
      << "-way servers (theta=" << cos2.theta << ")\n\n";
  TextTable table(
      {"server", "workloads", "required CPU", "utilization", "binding"});
  for (std::size_t s = 0; s < report.evaluation.servers.size(); ++s) {
    const auto& se = report.evaluation.servers[s];
    if (!se.used) continue;
    std::string names;
    for (std::size_t w : se.workloads) {
      if (!names.empty()) names += " ";
      names += traces[w].name();
    }
    table.add_row({std::to_string(s), names,
                   TextTable::num(se.required_capacity, 1),
                   TextTable::num(100.0 * se.utilization, 0) + "%",
                   sim::to_string(se.binding)});
  }
  table.render(out);
  out << "\nC_requ = " << TextTable::num(report.total_required_capacity, 1)
      << " CPUs, C_peak = "
      << TextTable::num(report.total_peak_allocation, 1) << " CPUs ("
      << TextTable::num(100.0 * (1.0 - report.total_required_capacity /
                                           report.total_peak_allocation),
                        1)
      << "% sharing savings)\n";
  return 0;
}

}  // namespace ropus::cli
