// Ready-made workload profiles for common enterprise shapes. Each preset is
// a starting point — callers rename it and adjust scale. Their distinct
// daily rhythms are what make mixed fleets consolidate well (batch runs at
// night exactly when interactive demand is idle — the anti-correlation the
// placement layer exploits).
#pragma once

#include "workload/profile.h"

namespace ropus::workload::presets {

/// Interactive, user-facing service: business-hours bump, quiet weekends,
/// moderate spikes.
Profile interactive_web(const std::string& name, double base_cpus);

/// Nightly batch: demand concentrated around 2am at full tilt, seven days
/// a week, almost no daytime load.
Profile batch_nightly(const std::string& name, double peak_cpus);

}  // namespace ropus::workload::presets
