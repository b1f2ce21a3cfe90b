#include "workload/presets.h"

namespace ropus::workload::presets {

Profile interactive_web(const std::string& name, double base_cpus) {
  Profile p;
  p.name = name;
  p.base_cpus = base_cpus;
  p.diurnal_amplitude = 1.3;
  p.peak_hour = 14.0;
  p.peak_width_hours = 3.5;
  p.night_factor = 0.2;
  p.weekend_factor = 0.4;
  p.noise_cv = 0.18;
  p.noise_phi = 0.6;
  p.spikes_per_day = 0.4;
  p.spike_mean_minutes = 15.0;
  p.spike_pareto_alpha = 1.4;
  p.spike_scale = 1.5;
  p.max_cpus = base_cpus * 6.0;
  p.validate();
  return p;
}

Profile batch_nightly(const std::string& name, double peak_cpus) {
  Profile p;
  p.name = name;
  p.base_cpus = peak_cpus * 0.6;
  p.diurnal_amplitude = 0.8;
  p.peak_hour = 2.0;  // the nightly window
  p.peak_width_hours = 2.0;
  p.night_factor = 0.05;  // nothing outside the window
  p.weekend_factor = 1.0; // batches run every night
  p.noise_cv = 0.10;
  p.noise_phi = 0.5;
  p.spikes_per_day = 0.1;
  p.spike_mean_minutes = 30.0;
  p.spike_pareto_alpha = 2.0;
  p.spike_scale = 0.5;
  p.max_cpus = peak_cpus * 1.5;
  p.validate();
  return p;
}

}  // namespace ropus::workload::presets
