#include "workload/fleet.h"

#include <cmath>

#include "workload/generator.h"

namespace ropus::workload {

namespace {

/// Deterministic small perturbation in [-1, 1] so the 26 profiles are not
/// carbon copies of their class template; derived from the app index only.
double wobble(std::size_t i, std::size_t salt) {
  // Low-discrepancy-ish: fractional part of i * golden ratio, salted.
  const double x = std::fmod(static_cast<double>(i * 37 + salt * 101) *
                                 0.6180339887498949,
                             1.0);
  return 2.0 * x - 1.0;
}

Profile make_profile(std::size_t index) {
  Profile p;
  p.name = "app-" + std::string(index + 1 < 10 ? "0" : "") +
           std::to_string(index + 1);

  // Burstiness decays with index: class boundaries at 2 and 10 match the
  // Figure 6 discussion.
  if (index < 2) {
    // Extreme: rare but enormous spikes dominate the peak.
    p.base_cpus = 0.45 + 0.1 * wobble(index, 1);
    p.diurnal_amplitude = 0.8;
    p.noise_cv = 0.30;
    p.noise_phi = 0.55;
    p.spikes_per_day = 0.15;
    p.spike_mean_minutes = 10.0;
    p.spike_pareto_alpha = 0.8;  // very heavy tail
    p.spike_scale = 3.0;
    p.max_cpus = 5.5 + 0.5 * wobble(index, 2);
  } else if (index < 10) {
    // High burst: top 3% of demand 2-10x the rest.
    const double f = static_cast<double>(index - 2) / 8.0;  // 0 .. 1
    p.base_cpus = 0.9 + 0.5 * f + 0.15 * wobble(index, 3);
    p.diurnal_amplitude = 1.0 + 0.3 * wobble(index, 4);
    p.noise_cv = 0.25 - 0.05 * f;
    p.noise_phi = 0.6;
    p.spikes_per_day = 0.8 - 0.4 * f;
    p.spike_mean_minutes = 20.0 + 10.0 * wobble(index, 5);
    p.spike_pareto_alpha = 1.1 + 0.6 * f;
    p.spike_scale = 2.2 - 1.0 * f;
    p.max_cpus = 6.5 + 1.2 * wobble(index, 6);
  } else if (index < 20) {
    // Moderate: visible spikes, but the diurnal cycle carries the peak.
    const double f = static_cast<double>(index - 10) / 10.0;
    p.base_cpus = 1.4 + 0.6 * f + 0.2 * wobble(index, 7);
    p.diurnal_amplitude = 1.2 + 0.4 * wobble(index, 8);
    p.noise_cv = 0.18 - 0.06 * f;
    p.noise_phi = 0.65;
    p.spikes_per_day = 0.35 - 0.2 * f;
    p.spike_mean_minutes = 25.0;
    p.spike_pareto_alpha = 1.8 + 0.8 * f;
    p.spike_scale = 0.9 - 0.3 * f;
    p.max_cpus = 5.0 + 1.0 * wobble(index, 9);
  } else {
    // Steady: smooth diurnal load, negligible spikes.
    const double f = static_cast<double>(index - 20) / 6.0;
    p.base_cpus = 1.6 + 0.5 * f + 0.2 * wobble(index, 10);
    p.diurnal_amplitude = 1.0 + 0.3 * wobble(index, 11);
    p.noise_cv = 0.10 - 0.04 * f;
    p.noise_phi = 0.7;
    p.spikes_per_day = 0.05;
    p.spike_mean_minutes = 15.0;
    p.spike_pareto_alpha = 2.5;
    p.spike_scale = 0.4;
    p.max_cpus = 4.5 + 0.8 * wobble(index, 12);
  }

  // Stagger business-hours peaks across the fleet (order-entry systems in
  // different regions peak at different hours), which is what makes
  // consolidation pay off.
  p.peak_hour = 9.0 + std::fmod(static_cast<double>(index) * 2.3, 9.0);
  p.peak_width_hours = 2.5 + 0.8 * (0.5 + 0.5 * wobble(index, 13));
  p.night_factor = 0.18 + 0.1 * (0.5 + 0.5 * wobble(index, 14));
  p.weekend_factor = 0.3 + 0.2 * (0.5 + 0.5 * wobble(index, 15));

  // Global scale chosen so the fleet's sum of peak allocations lands near
  // the paper's Table I (C_peak ~218 CPUs for M_degr = 0): 26 applications
  // consolidating onto ~8 16-way servers.
  p.base_cpus *= 0.8;
  p.max_cpus *= 0.8;

  // Non-CPU attributes (used only by the multi-attribute extension):
  // enterprise order-entry applications carry a sizeable resident set.
  p.memory_base_gb = 3.0 + 2.0 * (0.5 + 0.5 * wobble(index, 16));
  p.memory_per_cpu_gb = 2.0 + 0.6 * wobble(index, 17);
  p.disk_mbps_per_cpu = 18.0 + 6.0 * wobble(index, 18);
  p.network_mbps_per_cpu = 40.0 + 15.0 * wobble(index, 19);

  p.validate();
  return p;
}

}  // namespace

std::vector<Profile> case_study_profiles() {
  std::vector<Profile> profiles;
  profiles.reserve(kCaseStudyApps);
  for (std::size_t i = 0; i < kCaseStudyApps; ++i) {
    profiles.push_back(make_profile(i));
  }
  return profiles;
}

std::vector<trace::DemandTrace> case_study_traces(
    const trace::Calendar& calendar, std::uint64_t seed) {
  const std::vector<Profile> profiles = case_study_profiles();
  return generate_all(profiles, calendar, seed);
}

}  // namespace ropus::workload
