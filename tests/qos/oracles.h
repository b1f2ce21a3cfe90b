// Reference computations the QoS tests check translations against.
#pragma once

#include <algorithm>
#include <limits>

#include "qos/translation.h"

namespace ropus::qos::testing {

/// Utilization of the worst-case received allocation at `demand` (formula
/// 8: A_recv = (A_CoS1 + theta * A_CoS2) / U_low); 0 for no demand.
inline double worst_case_utilization(const Translation& tr, double demand) {
  if (demand <= 0.0) return 0.0;
  const double capped = std::min(demand, tr.d_new_max);
  const double cos1 = std::min(capped, tr.cos1_demand_cap());
  const double received =
      (cos1 + tr.theta * (capped - cos1)) / tr.requirement.u_low;
  return received > 0.0 ? demand / received
                        : std::numeric_limits<double>::infinity();
}

}  // namespace ropus::qos::testing
