// Genetic placement search (Section VI-B).
//
// Chromosome = Assignment (server index per workload). The paper's operators:
//  * mutation picks a used server with probability inversely related to its
//    f(U) score and migrates its workloads to other used servers, tending to
//    vacate one server per step; a small per-gene mutation adds diversity;
//    infeasible children instead get a *relief* mutation that moves one
//    workload off each overbooked server, so the search can repair a bad
//    starting configuration (e.g. after a server failure);
//  * crossover takes a random subset of gene positions from one parent and
//    the rest from the other;
//  * selection is by tournament; the best individuals survive unchanged
//    (elitism) and the best *feasible* assignment ever seen is returned.
//
// Offspring evaluation shards across the process thread pool (ropus_cli
// --threads). The search stays a pure function of (problem, seeds, config):
// selection draws and per-child mutation seeds come off the master rng
// sequentially before dispatch, so the result is identical at any thread
// count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "placement/problem.h"

namespace ropus::placement {

/// The search's size and seed. The operator rates are fixed in genetic.cpp:
/// tournaments of 3, 2 elites, crossover rate 0.9, per-gene mutation rate
/// 0.02, and a 0.6 chance that a feasible child's mutation tries to empty a
/// server.
struct GeneticConfig {
  std::size_t population = 32;  // >= 3: two elites plus offspring
  std::size_t max_generations = 300;
  std::size_t stagnation_limit = 30;  // stop after this many flat generations
  std::uint64_t seed = 1;

  /// Migration-aware search: every workload placed on a different server
  /// than in `migration_reference` costs `migration_penalty` fitness. The
  /// paper notes a reconfiguration needs "an appropriate workload migration
  /// technology ... without disrupting the application processing";
  /// penalizing churn keeps the periodic medium-term re-placement close to
  /// the configuration already running. 0 disables (the default). The
  /// returned evaluation always carries the plain Section VI-B score; the
  /// penalty decides which feasible assignment wins.
  double migration_penalty = 0.0;
  std::optional<Assignment> migration_reference;

  void validate() const;
};

struct GeneticResult {
  Assignment best;                 // best feasible if any, else best overall
  PlacementEvaluation evaluation;  // evaluation of `best`
  bool found_feasible = false;
  std::size_t generations = 0;
};

/// Runs the search from `initial` (the consolidation exercise starts from
/// the current configuration; Section VI-B). The initial assignment is
/// always part of the first population.
GeneticResult genetic_search(const PlacementProblem& problem,
                             const Assignment& initial,
                             const GeneticConfig& config);

/// Multi-seed variant: every seed joins the first population (useful to mix
/// the current configuration with a greedy packing). Requires >= 1 seed.
GeneticResult genetic_search(const PlacementProblem& problem,
                             std::span<const Assignment> seeds,
                             const GeneticConfig& config);

}  // namespace ropus::placement
