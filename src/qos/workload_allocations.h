// A workload's allocation requirements across capacity attributes.
//
// CPU goes through the full QoS translation (burst factor, breakpoint, two
// classes of service) because workload managers control CPU shares at the
// 5-minute timescale. Non-CPU attributes — memory, disk and network
// bandwidth — are provisioned to demand at guaranteed priority: reclaiming
// resident memory or oversubscribing I/O mid-interval is not something the
// Section II workload manager does, so their demand traces *are* their
// allocation traces.
#pragma once

#include <array>
#include <optional>

#include "qos/allocation.h"
#include "trace/attribute.h"

namespace ropus::qos {

class WorkloadAllocations {
 public:
  /// Wraps a translated CPU allocation. Non-CPU attributes start absent.
  explicit WorkloadAllocations(AllocationTrace cpu);

  /// Attaches a non-CPU attribute demand trace (must share the CPU trace's
  /// calendar; `attribute` must not be kCpu; replaces any previous trace).
  /// Values are snapped to the 2^-20 allocation grid, as AllocationTrace
  /// snaps the CPU allocation.
  void set_attribute(trace::Attribute attribute, trace::DemandTrace demand);

  const std::string& name() const { return cpu_.name(); }
  const trace::Calendar& calendar() const { return cpu_.calendar(); }
  const AllocationTrace& cpu() const { return cpu_; }

  /// The attached demand trace, or nullptr when the attribute is absent
  /// (absent attributes consume nothing).
  const trace::DemandTrace* attribute(trace::Attribute attribute) const;

 private:
  AllocationTrace cpu_;
  std::array<std::optional<trace::DemandTrace>, trace::kAttributeCount>
      attributes_;
};

}  // namespace ropus::qos
