// Machine-readable export of capacity plans: JSON for dashboards and
// automation on top of the pool (the "capacity-as-a-service utility"
// framing of Section I wants an API surface, not just console tables).
#pragma once

#include <string>

#include "core/capacity_planner.h"

namespace ropus {

/// Serializes a long-term capacity projection.
std::string to_json(const CapacityPlanningReport& report);

}  // namespace ropus
