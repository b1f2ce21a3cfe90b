// The evaluation types placement searches exchange: what a
// PlacementProblem (placement/problem.h) reports for one server and for a
// whole assignment, and the per-server verdict its memo stores.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/incremental.h"
#include "sim/simulator.h"

namespace ropus::placement {

/// Evaluation of one server under an assignment.
struct ServerEvaluation {
  std::vector<std::size_t> workloads;  // indices of hosted workloads
  bool used = false;
  bool fits = false;           // commitments satisfiable within capacity
  double required_capacity = 0.0;  // CPU attribute (the scored one)
  double utilization = 0.0;    // scoring utilization in [0, 1] when fits
  double score = 0.0;          // contribution to the objective
  sim::Binding binding;        // the constraint that set required_capacity
};

/// Evaluation of a whole assignment.
struct PlacementEvaluation {
  double score = 0.0;
  bool feasible = false;       // every used server fits
  std::size_t servers_used = 0;
  double total_required_capacity = 0.0;  // sum over used, fitting servers
  std::vector<ServerEvaluation> servers;
};

/// A per-server verdict pared down to what scoring needs — the value the
/// shared required-capacity memo stores and the probe result of the delta
/// path. The memo is keyed on the CPU count alone, so there `fits` covers
/// the CPU commitment; verdicts handed to callers are judged on their
/// server, attributes included. `capacity` is meaningful only when the CPU
/// commitment fits.
struct ServerVerdict {
  bool fits = false;
  double capacity = 0.0;
  sim::Binding binding;  // the constraint that set `capacity`
  /// Peak aggregate demand per non-CPU attribute (0 where no hosted
  /// workload carries it).
  sim::AttributePeaks peaks{};
};

}  // namespace ropus::placement
