// Compliance checking: did a container's realized utilization of allocation
// honour its QoS requirement? Closes the loop between QoS translation
// (planning) and the workload-manager execution simulation.
#pragma once

#include <span>
#include <vector>

#include "qos/requirements.h"
#include "slo/kernel.h"

namespace ropus::wlm {

/// Classification of a run against a Requirement: the slo kernel's counts
/// (src/slo/kernel.h — the single home of the band arithmetic). Judge it
/// with satisfies(band_of(req), slack_percent).
using ComplianceReport = slo::BandCounts;

/// The kernel Band for a Requirement (an unset T_degr maps to the kernel's
/// "<= 0 means unconstrained" convention).
slo::Band band_of(const qos::Requirement& req);

/// Compares a container's realized grants against its demand under `req`,
/// over a whole trace or any window of one (the failure drill judges the
/// pre- and post-failure stretches separately).
ComplianceReport check_compliance_range(std::span<const double> demand,
                                        std::span<const double> granted,
                                        const qos::Requirement& req,
                                        double minutes_per_sample);

/// Masked, attributed variant: judges only slots where `mask[i]` is true,
/// and splits the degraded/violating intervals by cause. The mask serves
/// the failure drills, where an application alternates between its normal
/// and failure-mode requirements as servers fail and are repaired — each
/// mode's slots form a non-contiguous subset. A masked-out slot ends any
/// degraded run (the other mode's report picks it up from scratch).
/// `fallback[i]` marks slots where the controller served its telemetry
/// fallback (Controller::in_fallback); degradations on those slots are
/// charged to the measurement pipeline via
/// ComplianceReport::degraded_telemetry / violating_telemetry. An empty
/// `fallback` vector means perfect telemetry.
ComplianceReport check_compliance_attributed(std::span<const double> demand,
                                             std::span<const double> granted,
                                             const std::vector<bool>& mask,
                                             const std::vector<bool>& fallback,
                                             const qos::Requirement& req,
                                             double minutes_per_sample);

}  // namespace ropus::wlm
