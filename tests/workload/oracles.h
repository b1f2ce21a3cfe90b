// Reference computations the workload tests check generated traces against.
#pragma once

#include <cstddef>

#include "trace/demand_trace.h"

namespace ropus::workload::testing {

/// Mean demand at slot-of-day `slot` across every day of `t`.
inline double mean_at_slot(const trace::DemandTrace& t, std::size_t slot) {
  const std::size_t per_day = t.calendar().slots_per_day();
  double sum = 0.0;
  std::size_t days = 0;
  for (std::size_t i = slot; i < t.size(); i += per_day, ++days) sum += t[i];
  return sum / static_cast<double>(days);
}

}  // namespace ropus::workload::testing
