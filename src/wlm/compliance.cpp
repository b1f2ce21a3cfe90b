// Thin adapters over the slo kernel: all band arithmetic — the 1e-9
// relative slack, idle/run-reset rules, telemetry attribution, and the
// M%/T_degr budget checks — lives in src/slo/kernel.cpp.
#include "wlm/compliance.h"

#include "common/error.h"

namespace ropus::wlm {

slo::Band band_of(const qos::Requirement& req) {
  slo::Band band;
  band.u_high = req.u_high;
  band.u_degr = req.u_degr;
  band.m_percent = req.m_percent;
  band.t_degr_minutes = req.t_degr_minutes.value_or(0.0);
  return band;
}

namespace {

ComplianceReport check_range_impl(std::span<const double> demand,
                                  std::span<const double> granted,
                                  const std::vector<bool>* mask,
                                  const std::vector<bool>* fallback,
                                  const qos::Requirement& req,
                                  double minutes_per_sample) {
  req.validate();
  return slo::accumulate_bands(demand, granted, band_of(req),
                               minutes_per_sample, mask, fallback);
}

}  // namespace

ComplianceReport check_compliance_range(std::span<const double> demand,
                                        std::span<const double> granted,
                                        const qos::Requirement& req,
                                        double minutes_per_sample) {
  return check_range_impl(demand, granted, nullptr, nullptr, req,
                          minutes_per_sample);
}

ComplianceReport check_compliance_attributed(std::span<const double> demand,
                                             std::span<const double> granted,
                                             const std::vector<bool>& mask,
                                             const std::vector<bool>& fallback,
                                             const qos::Requirement& req,
                                             double minutes_per_sample) {
  return check_range_impl(demand, granted, &mask,
                          fallback.empty() ? nullptr : &fallback, req,
                          minutes_per_sample);
}

}  // namespace ropus::wlm
