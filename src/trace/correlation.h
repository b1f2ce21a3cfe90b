// Demand-correlation analysis. The paper's related-work section points at
// "heuristic search approaches that also take into account correlations in
// resource demands among workloads" as worth exploring; these are the
// statistics that idea needs (and placement::correlation_aware_greedy is
// the exploration).
#pragma once

#include <vector>

#include "trace/demand_trace.h"

namespace ropus::trace {

/// Pearson correlation of two traces on the same calendar, in [-1, 1].
/// Returns 0 when either trace is constant (no co-variation to measure).
double correlation(const DemandTrace& a, const DemandTrace& b);

/// Pairwise correlation matrix (symmetric, unit diagonal for non-constant
/// traces).
std::vector<std::vector<double>> correlation_matrix(
    std::span<const DemandTrace> traces);

}  // namespace ropus::trace
