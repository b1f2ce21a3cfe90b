#include "qos/workload_allocations.h"

#include "common/error.h"
#include "common/grid.h"

namespace ropus::qos {

WorkloadAllocations::WorkloadAllocations(AllocationTrace cpu)
    : cpu_(std::move(cpu)) {}

void WorkloadAllocations::set_attribute(trace::Attribute attribute,
                                        trace::DemandTrace demand) {
  ROPUS_REQUIRE(attribute != trace::Attribute::kCpu,
                "CPU goes through QoS translation, not set_attribute");
  ROPUS_REQUIRE(demand.calendar() == cpu_.calendar(),
                "attribute trace must share the CPU calendar");
  // Snapped to the allocation grid like the CPU allocation, so attribute
  // sums are exact too (common/grid.h).
  std::vector<double> snapped(demand.values().begin(), demand.values().end());
  for (double& v : snapped) v = grid::snap(v);
  attributes_[trace::attribute_index(attribute)] = trace::DemandTrace(
      demand.name(), demand.calendar(), std::move(snapped));
}

const trace::DemandTrace* WorkloadAllocations::attribute(
    trace::Attribute attribute) const {
  const auto& slot = attributes_[trace::attribute_index(attribute)];
  return slot.has_value() ? &*slot : nullptr;
}

}  // namespace ropus::qos
