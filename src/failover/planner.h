// Failure-mode planning (Section VI-C).
//
// Starting from the consolidated normal-mode configuration, the planner
// removes one server at a time, switches applications to their failure-mode
// QoS requirements, and re-runs the consolidation exercise on the surviving
// servers. It reports, per failure, whether the survivors can carry the load
// — and hence whether the pool needs a spare server.
//
// The case study operates the whole fleet under the weaker failure-mode
// constraints while a repair is pending (all 26 applications move from
// case-1/4 constraints to case-2/3/5/6 constraints), and so does the
// planner: every scenario places every application's failure-mode
// allocation on the survivors.
#pragma once

#include <vector>

#include "placement/consolidator.h"
#include "placement/problem.h"
#include "sim/server.h"
#include "qos/requirements.h"
#include "trace/demand_trace.h"

namespace ropus::failover {

struct PlannerConfig {
  placement::ConsolidationConfig normal;   // normal-mode consolidation
  placement::ConsolidationConfig failure;  // per-failure re-consolidation
};

/// Outcome of losing one specific server.
struct FailureOutcome {
  std::size_t failed_server = 0;  // index into the original pool
  std::vector<std::size_t> affected_apps;     // apps hosted there normally
  std::vector<std::size_t> surviving_servers; // pool indices of survivors
  bool supported = false;         // feasible on the survivors
  std::size_t servers_used = 0;
  double total_required_capacity = 0.0;
  placement::Assignment assignment;  // over surviving_servers' indices
};

struct FailoverReport {
  placement::ConsolidationReport normal;  // normal-mode placement
  std::vector<std::size_t> active_servers;  // pool indices used normally
  std::vector<FailureOutcome> outcomes;   // one per active server
  /// True when some single failure cannot be absorbed — the pool operator
  /// should provision a spare (or relax failure-mode QoS further).
  bool spare_needed = false;
};

/// Outcome of losing several servers at once (the paper notes the single-
/// failure scenario "can be extended to multiple node failures").
struct MultiFailureOutcome {
  std::vector<std::size_t> failed_servers;  // pool indices, ascending
  std::vector<std::size_t> affected_apps;
  bool supported = false;
  std::size_t servers_used = 0;
  double total_required_capacity = 0.0;
};

struct MultiFailoverReport {
  placement::ConsolidationReport normal;
  std::vector<std::size_t> active_servers;
  std::size_t concurrent_failures = 0;      // the k analysed
  std::vector<MultiFailureOutcome> outcomes;  // one per k-subset
  std::size_t unsupported = 0;              // subsets the survivors can't carry
  bool all_supported() const { return unsupported == 0; }
};

class FailurePlanner {
 public:
  /// `demands` and `qos` are parallel (one ApplicationQos per demand trace).
  /// All traces must share a calendar. Specs are validated.
  FailurePlanner(std::span<const trace::DemandTrace> demands,
                 std::span<const qos::ApplicationQos> qos,
                 qos::PoolCommitments commitments,
                 std::vector<sim::ServerSpec> pool);

  /// Runs normal-mode consolidation, then the single-failure sweep.
  FailoverReport plan(const PlannerConfig& config) const;

  /// Sweeps every subset of `concurrent_failures` active servers failing at
  /// once (1 <= k < number of active servers). The number of subsets grows
  /// combinatorially; `max_subsets` caps the sweep (0 = unlimited) and the
  /// report notes how many were analysed.
  MultiFailoverReport plan_concurrent(const PlannerConfig& config,
                                      std::size_t concurrent_failures,
                                      std::size_t max_subsets = 0) const;

 private:
  std::span<const trace::DemandTrace> demands_;
  std::span<const qos::ApplicationQos> qos_;
  qos::PoolCommitments commitments_;
  std::vector<sim::ServerSpec> pool_;

  /// Every app's allocation trace under its normal or failure-mode QoS.
  std::vector<qos::AllocationTrace> build_allocations(bool failure_mode) const;

  /// Re-consolidates after the servers in `failed` (pool indices, sorted)
  /// go down simultaneously: `failure_problem` places every app's
  /// failure-mode allocation on the whole pool, and the scenario's problem
  /// derives from it on the survivors, sharing its verdict memo. Shared by
  /// the single- and multi-failure sweeps.
  placement::ConsolidationReport consolidate_survivors(
      const placement::ConsolidationReport& normal,
      const placement::PlacementProblem& failure_problem,
      const std::vector<std::size_t>& active,
      const std::vector<std::size_t>& failed, const PlannerConfig& config,
      std::vector<std::size_t>* surviving_servers) const;
};

}  // namespace ropus::failover
