#include "placement/consolidator.h"

#include <optional>

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

/// Both overloads: `initial` starts the search, or when null the greedy
/// packing does, falling back to a spread when the packing fails. The
/// packing is computed once; when it succeeds it also joins the population
/// as the second seed, so the search draws as it would from two packings.
ConsolidationReport consolidate_from(const PlacementProblem& problem,
                                     const Assignment* initial,
                                     const ConsolidationConfig& config) {
  static obs::Counter& calls = obs::counter("placement.consolidate.calls");
  static obs::Histogram& seconds =
      obs::histogram("placement.consolidate.seconds");
  calls.add(1);
  obs::ScopedSpan span("placement.consolidate");
  obs::ScopedTimer timer(seconds);

  std::optional<Assignment> greedy = problem.greedy_seed();
  std::vector<Assignment> seeds;
  if (initial != nullptr) {
    seeds.push_back(*initial);
  } else if (greedy) {
    ROPUS_LOG(kInfo) << "consolidation seeded from greedy packing ("
                     << servers_used(*greedy, problem.server_count())
                     << " servers)";
    seeds.push_back(*greedy);
  } else if (problem.server_count() >= problem.workload_count()) {
    seeds.push_back(
        one_per_server(problem.workload_count(), problem.server_count()));
  } else {
    // Fall back to an arbitrary spread; the search will repair or report
    // infeasibility.
    Assignment spread(problem.workload_count());
    for (std::size_t w = 0; w < spread.size(); ++w) {
      spread[w] = w % problem.server_count();
    }
    seeds.push_back(std::move(spread));
  }
  if (greedy) seeds.push_back(std::move(*greedy));
  const GeneticResult gr = genetic_search(problem, seeds, config.genetic);
  return report_from(problem, gr);
}
}  // namespace

ConsolidationReport consolidate(const PlacementProblem& problem,
                                const Assignment& initial,
                                const ConsolidationConfig& config) {
  return consolidate_from(problem, &initial, config);
}

ConsolidationReport consolidate(const PlacementProblem& problem,
                                const ConsolidationConfig& config) {
  return consolidate_from(problem, nullptr, config);
}

}  // namespace ropus::placement
