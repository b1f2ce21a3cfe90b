// The Requirement-to-Band adapter. All band arithmetic — the 1e-9 relative
// slack, idle/run-reset rules, telemetry attribution, and the M%/T_degr
// budget checks — lives in src/slo/kernel.{h,cpp}.
#include "wlm/compliance.h"

namespace ropus::wlm {

slo::Band band_of(const qos::Requirement& req) {
  slo::Band band;
  band.u_high = req.u_high;
  band.u_degr = req.u_degr;
  band.m_percent = req.m_percent;
  band.t_degr_minutes = req.t_degr_minutes.value_or(0.0);
  return band;
}

}  // namespace ropus::wlm
