// The consolidation exercise (Section VI-B): search for an assignment that
// satisfies the resource access commitments on as few servers as possible,
// over a CPU-only or a multi-attribute PlacementProblem.
#pragma once

#include "placement/genetic.h"
#include "placement/problem.h"

namespace ropus::placement {

struct ConsolidationConfig {
  GeneticConfig genetic;
};

struct ConsolidationReport {
  bool feasible = false;
  Assignment assignment;
  PlacementEvaluation evaluation;
  std::size_t servers_used = 0;
  double total_required_capacity = 0.0;  // Table I's per-case C_requ
  double total_peak_allocation = 0.0;    // Table I's per-case C_peak
  std::size_t generations = 0;
};

/// Runs the consolidation exercise on `problem`, seeding the genetic
/// population from the problem's greedy packing (a good starting
/// configuration shortens the search), or from one workload per server when
/// the packing fails. The pool must be large enough for a feasible
/// placement to exist (e.g. one server per workload); `report.feasible` is
/// false otherwise. When the greedy packing succeeds, equal to the overload
/// below started from that packing: it is computed once and seeds the
/// population twice.
ConsolidationReport consolidate(const PlacementProblem& problem,
                                const ConsolidationConfig& config);

/// Convenience overload starting from an explicit initial configuration
/// (used by the failure planner, which re-consolidates survivors). When the
/// problem's greedy packing succeeds, that packing joins the initial
/// population as a second seed.
ConsolidationReport consolidate(const PlacementProblem& problem,
                                const Assignment& initial,
                                const ConsolidationConfig& config);

}  // namespace ropus::placement
