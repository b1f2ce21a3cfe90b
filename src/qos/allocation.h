// Per-CoS allocation traces: the output of QoS translation that the workload
// placement simulator replays (Section VI-A).
//
// For each observation the application's demand is capped at D_new_max,
// split at the breakpoint (demand up to p * D_new_max on CoS1, the rest on
// CoS2), and scaled by the burst factor 1/U_low into an allocation request.
//
// Every per-slot value is snapped to the 2^-20 CPU allocation grid
// (common/grid.h) at construction, and the peaks are stored as the values
// are snapped. On-grid values sum exactly in plain doubles, which makes
// aggregate sums order-independent and reversible; sim::IncrementalEvaluator
// trusts the grid and the stored peaks instead of checking them (the
// contract: docs/algorithms.md §11, "The precondition").
#pragma once

#include <string>
#include <vector>

#include "qos/translation.h"
#include "trace/demand_trace.h"

namespace ropus::qos {

/// One application's time-varying allocation requests on the two classes of
/// service, on the same calendar as its demand trace.
class AllocationTrace {
 public:
  /// Builds the allocation trace for `demand` under translation `tr`.
  AllocationTrace(const trace::DemandTrace& demand, const Translation& tr);

  const std::string& name() const { return name_; }
  const trace::Calendar& calendar() const { return calendar_; }
  std::size_t size() const { return cos1_.size(); }

  std::span<const double> cos1() const { return cos1_; }
  std::span<const double> cos2() const { return cos2_; }

  /// Total requested allocation at observation i.
  double total(std::size_t i) const { return cos1_[i] + cos2_[i]; }

  /// Peak total requested allocation (C_peak sums this per application;
  /// equals D_new_max / U_low for a non-degenerate translation).
  double peak_allocation() const { return peak_total_; }

  /// Peak CoS1 request — must fit under guaranteed capacity on any server
  /// hosting this application.
  double peak_cos1() const { return peak_cos1_; }

  const Translation& translation() const { return translation_; }

 private:
  std::string name_;
  trace::Calendar calendar_;
  Translation translation_;
  std::vector<double> cos1_;
  std::vector<double> cos2_;
  double peak_total_ = 0.0;
  double peak_cos1_ = 0.0;
};

/// Convenience: translate then build, for each demand trace, under a common
/// requirement and CoS2 commitment.
std::vector<AllocationTrace> build_allocations(
    std::span<const trace::DemandTrace> demands, const Requirement& req,
    const CosCommitment& cos2);

}  // namespace ropus::qos
