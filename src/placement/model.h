// PlacementModel: the contract every placement problem exposes to the
// search algorithms. The CPU-only PlacementProblem (the paper's case study)
// and the multi-attribute MultiPlacementProblem (the Section IX extension to
// memory and I/O attributes) both implement it, so the genetic search and
// the consolidation driver work over either unchanged.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "placement/assignment.h"
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
/// path. `capacity` is meaningful only when `fits`.
struct ServerVerdict {
  bool fits = false;
  double capacity = 0.0;
  sim::Binding binding;  // the constraint that set `capacity`
};

/// A mutable evaluation context for one search thread. Contexts exist so a
/// model can carry incremental state between the assignments one searcher
/// evaluates (the delta-evaluation engine re-verdicts only the servers an
/// offspring actually changed); the contract is that `evaluate` returns
/// bit-identical results to `PlacementModel::evaluate` regardless of what
/// the context evaluated before. Contexts are NOT thread-safe — searches
/// hand one context to one worker at a time (see genetic.cpp's pool).
class PlacementContext {
 public:
  virtual ~PlacementContext() = default;

  /// Scores `a` — same validation, same bits as the owning model's
  /// evaluate().
  virtual PlacementEvaluation evaluate(const Assignment& a) = 0;

 protected:
  PlacementContext() = default;
  PlacementContext(const PlacementContext&) = default;
  PlacementContext& operator=(const PlacementContext&) = default;
};

class PlacementModel {
 public:
  virtual ~PlacementModel() = default;

  virtual std::size_t workload_count() const = 0;
  virtual std::size_t server_count() const = 0;

  /// Scores an assignment with the Section VI-B objective. Must validate
  /// the assignment and be deterministic (searches call it heavily).
  virtual PlacementEvaluation evaluate(const Assignment& a) const = 0;

  /// Sum of per-workload peak allocation requests on the scored attribute
  /// (C_peak in Table I).
  virtual double total_peak_allocation() const = 0;

  /// An optional greedy packing used to seed stochastic searches; models
  /// without a cheap greedy return nullopt.
  virtual std::optional<Assignment> greedy_seed() const {
    return std::nullopt;
  }

  /// A fresh evaluation context. The default simply forwards to the
  /// model's batch evaluate(); models with an incremental engine
  /// (PlacementProblem) override it with their delta context. The model
  /// must outlive every context it hands out.
  virtual std::unique_ptr<PlacementContext> make_context() const;

  /// Checks a context out for one worker's exclusive use; pair with
  /// release_context when done. Models with expensive contexts
  /// (PlacementProblem's engine allocates per-server slot sums and scans
  /// every workload once) keep released contexts in an internal pool so
  /// repeated searches over the same model reuse them — engine state
  /// carried between searches never changes results, only how much work a
  /// verdict costs. The default has nothing to pool: acquire makes a fresh
  /// context, release discards it.
  virtual std::unique_ptr<PlacementContext> acquire_context() const;
  virtual void release_context(std::unique_ptr<PlacementContext> ctx) const;

 protected:
  PlacementModel() = default;
  PlacementModel(const PlacementModel&) = default;
  PlacementModel& operator=(const PlacementModel&) = default;
};

}  // namespace ropus::placement
