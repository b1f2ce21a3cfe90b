// Compliance: the report a run is judged into, and the kernel band of a QoS
// requirement. run_event_schedule (wlm/failure_drill.h) judges every slot
// it grants against band_of the requirement of the mode the slot ran;
// src/slo/kernel.h holds the band arithmetic.
#pragma once

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

}  // namespace ropus::wlm
