// What-if scenario support for the medium-term activity of Figure 1:
// "assignments may be adjusted periodically ... as circumstances change
// (e.g., new applications must be supported; servers are upgraded, added,
// or removed)". These helpers derive perturbed demand traces so an operator
// can re-run the consolidation exercise against hypothetical futures before
// committing to them.
#pragma once

#include <vector>

#include "trace/demand_trace.h"

namespace ropus::workload {

/// Rotates a trace forward by `minutes` on the clock (a workload whose
/// users move time zones, or a batch window that slips). Rotation wraps
/// within each week, preserving day-of-week structure; `minutes` must be a
/// multiple of the sampling interval.
trace::DemandTrace time_shift(const trace::DemandTrace& t, double minutes);

/// A fleet-level scenario: per-application multiplicative scaling plus
/// optional new workloads joining the pool.
struct Scenario {
  /// factor[i] applies to fleet[i]; must match the fleet size (1.0 = keep).
  std::vector<double> scale;
  /// Extra workloads joining the pool (already on the fleet's calendar).
  std::vector<trace::DemandTrace> additions;
  /// Indices of fleet members leaving the pool (deduplicated, in-range).
  std::vector<std::size_t> removals;
};

/// Applies a scenario to a fleet; validation per the field comments.
std::vector<trace::DemandTrace> apply_scenario(
    std::span<const trace::DemandTrace> fleet, const Scenario& scenario);

}  // namespace ropus::workload
