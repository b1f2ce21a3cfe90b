#include "placement/consolidator.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::placement {

namespace {
ConsolidationReport report_from(const PlacementProblem& problem,
                                const GeneticResult& gr) {
  ConsolidationReport report;
  report.feasible = gr.found_feasible;
  report.assignment = gr.best;
  report.evaluation = gr.evaluation;
  report.servers_used = gr.evaluation.servers_used;
  report.total_required_capacity = gr.evaluation.total_required_capacity;
  report.total_peak_allocation = problem.total_peak_allocation();
  report.generations = gr.generations;
  return report;
}
}  // namespace

ConsolidationReport consolidate(const PlacementProblem& problem,
                                const Assignment& initial,
                                const ConsolidationConfig& config) {
  static obs::Counter& calls = obs::counter("placement.consolidate.calls");
  static obs::Histogram& seconds =
      obs::histogram("placement.consolidate.seconds");
  calls.add(1);
  obs::ScopedSpan span("placement.consolidate");
  obs::ScopedTimer timer(seconds);

  std::vector<Assignment> seeds{initial};
  if (config.seed_with_ffd) {
    if (auto greedy = problem.greedy_seed()) {
      seeds.push_back(std::move(*greedy));
    }
  }
  const GeneticResult gr = genetic_search(problem, seeds, config.genetic);
  return report_from(problem, gr);
}

ConsolidationReport consolidate(const PlacementProblem& problem,
                                const ConsolidationConfig& config) {
  Assignment initial;
  if (config.seed_with_ffd) {
    if (auto greedy = problem.greedy_seed()) {
      initial = std::move(*greedy);
      ROPUS_LOG(kInfo) << "consolidation seeded from greedy packing ("
                       << servers_used(initial, problem.server_count())
                       << " servers)";
    }
  }
  if (initial.empty()) {
    if (problem.server_count() >= problem.workload_count()) {
      initial = one_per_server(problem.workload_count(), problem.server_count());
    } else {
      // Fall back to an arbitrary spread; the search will repair or report
      // infeasibility.
      initial.resize(problem.workload_count());
      for (std::size_t w = 0; w < initial.size(); ++w) {
        initial[w] = w % problem.server_count();
      }
    }
  }
  return consolidate(problem, initial, config);
}

}  // namespace ropus::placement
