#include "faultsim/replay.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/error.h"
#include "slo/kernel.h"

namespace ropus::faultsim {

void ReplayConfig::validate() const {
  if (spare_servers > 0) {
    ROPUS_REQUIRE(spare_cpus >= 1, "spares need at least one CPU");
  }
  telemetry.validate();
  degraded.validate();
}

PlacementDecision place_apps(const std::vector<double>& peaks,
                             const placement::Assignment& preferred,
                             const placement::Assignment& current,
                             std::span<const sim::ServerSpec> pool,
                             const std::vector<bool>& down) {
  const std::size_t n = peaks.size();
  ROPUS_REQUIRE(preferred.size() == n && current.size() == n,
                "placement inputs must cover every app");
  ROPUS_REQUIRE(down.size() == pool.size(),
                "down flags must cover the pool");

  PlacementDecision decision;
  decision.hosts.assign(n, wlm::kUnhosted);
  std::vector<double> used(pool.size(), 0.0);
  std::vector<std::size_t> displaced;
  for (std::size_t a = 0; a < n; ++a) {
    ROPUS_REQUIRE(peaks[a] >= 0.0, "peak allocations must be >= 0");
    const std::size_t pref = preferred[a];
    ROPUS_REQUIRE(pref < pool.size(), "preferred host out of range");
    if (!down[pref]) {
      decision.hosts[a] = pref;
      used[pref] += peaks[a];
      continue;
    }
    const std::size_t cur = current[a];
    if (cur != wlm::kUnhosted) {
      ROPUS_REQUIRE(cur < pool.size(), "current host out of range");
      if (!down[cur]) {
        decision.hosts[a] = cur;
        used[cur] += peaks[a];
        continue;
      }
    }
    displaced.push_back(a);
  }

  std::sort(displaced.begin(), displaced.end(),
            [&](std::size_t a, std::size_t b) {
              if (peaks[a] != peaks[b]) return peaks[a] > peaks[b];
              return a < b;
            });
  for (const std::size_t a : displaced) {
    std::size_t best = wlm::kUnhosted;
    double best_left = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < pool.size(); ++s) {
      if (down[s]) continue;
      const double left = pool[s].capacity() - used[s] - peaks[a];
      if (left < -slo::kCapacityEps) continue;
      if (left < best_left) {
        best = s;
        best_left = left;
      }
    }
    if (best == wlm::kUnhosted) {
      decision.unhosted += 1;
    } else {
      decision.hosts[a] = best;
      used[best] += peaks[a];
    }
  }
  return decision;
}

TrialOutcome replay_trial(std::span<const trace::DemandTrace> demands,
                          std::span<const qos::Translation> normal,
                          std::span<const qos::Translation> failure,
                          std::span<const sim::ServerSpec> pool,
                          const placement::Assignment& normal_assignment,
                          const Timeline& timeline,
                          const ReplayConfig& config) {
  const std::size_t n = demands.size();
  ROPUS_REQUIRE(n >= 1, "replay needs workloads");
  ROPUS_REQUIRE(normal.size() == n && failure.size() == n,
                "one translation pair per workload");
  ROPUS_REQUIRE(!pool.empty(), "replay needs a server pool");
  placement::validate_assignment(normal_assignment, n, pool.size());
  config.validate();
  const trace::Calendar& cal = demands.front().calendar();

  // Base pool plus cold spares (inactive until explicitly brought up).
  std::vector<sim::ServerSpec> fleet(pool.begin(), pool.end());
  for (std::size_t k = 0; k < config.spare_servers; ++k) {
    fleet.push_back(
        sim::ServerSpec{"spare-" + std::to_string(k), config.spare_cpus});
  }

  // Surge-scaled demand: the traces the controllers and compliance see.
  // The scratch traces are thread-local so consecutive trials on one worker
  // (campaigns shard trials across the thread pool) rewrite the same
  // buffers via assign_scaled instead of re-allocating cal.size() doubles
  // per app per trial.
  const std::vector<double> factors = timeline.demand_multipliers(cal.size());
  const bool surged =
      std::any_of(factors.begin(), factors.end(),
                  [](double f) { return f != 1.0; });
  static thread_local std::vector<trace::DemandTrace> scaled;
  if (surged) {
    if (scaled.size() > n) {
      scaled.erase(scaled.begin() + static_cast<std::ptrdiff_t>(n),
                   scaled.end());
    }
    for (std::size_t a = 0; a < n; ++a) {
      if (a < scaled.size()) {
        scaled[a].assign_scaled(demands[a], factors);
      } else {
        scaled.push_back(trace::DemandTrace::zeros(demands[a].name(), cal));
        scaled.back().assign_scaled(demands[a], factors);
      }
    }
  }
  const std::span<const trace::DemandTrace> active =
      surged ? std::span<const trace::DemandTrace>(scaled).first(n) : demands;

  std::vector<double> normal_peaks(n);
  std::vector<double> failure_peaks(n);
  for (std::size_t a = 0; a < n; ++a) {
    normal_peaks[a] = normal[a].peak_allocation();
    failure_peaks[a] = failure[a].peak_allocation();
  }

  // Walk the failure/repair events and rebuild the placement at every
  // boundary. Spare activations create extra boundaries on the fly, so the
  // frontier is an ordered set rather than a plain event scan.
  std::map<std::size_t, std::vector<Event>> events_at;
  std::set<std::size_t> boundaries{0};
  for (const Event& e : timeline.events) {
    if (e.kind != EventKind::kFailure && e.kind != EventKind::kRepair) {
      continue;
    }
    ROPUS_REQUIRE(e.server < pool.size(), "event names an unknown server");
    if (e.slot >= cal.size()) continue;
    events_at[e.slot].push_back(e);
    boundaries.insert(e.slot);
  }
  std::map<std::size_t, std::size_t> activations;  // slot -> spares to wake

  std::vector<bool> down(fleet.size(), false);
  for (std::size_t k = 0; k < config.spare_servers; ++k) {
    down[pool.size() + k] = true;  // cold spare
  }
  placement::Assignment current = normal_assignment;
  std::size_t spares_awake = 0;
  std::size_t spares_scheduled = 0;

  TrialOutcome outcome;
  outcome.failures = timeline.failures;
  outcome.repairs = timeline.repairs;
  outcome.surges = timeline.surges;
  outcome.apps.resize(n);
  std::vector<std::size_t> app_migrations(n, 0);

  std::vector<wlm::SchedulePhase> phases;
  std::vector<wlm::OutageWindow> outages;
  std::vector<double> peaks(n);
  while (!boundaries.empty()) {
    const std::size_t b = *boundaries.begin();
    boundaries.erase(boundaries.begin());
    if (b >= cal.size()) continue;

    const auto ev = events_at.find(b);
    if (ev != events_at.end()) {
      for (const Event& e : ev->second) {
        down[e.server] = e.kind == EventKind::kFailure;
      }
    }
    const auto act = activations.find(b);
    if (act != activations.end()) {
      const std::size_t wake = std::min(
          act->second, config.spare_servers - spares_awake);
      for (std::size_t k = 0; k < wake; ++k) {
        down[pool.size() + spares_awake] = false;
        spares_awake += 1;
      }
      outcome.spare_activations += wake;
    }

    const bool fleet_degraded =
        std::any_of(down.begin(),
                    down.begin() + static_cast<std::ptrdiff_t>(pool.size()),
                    [](bool d) { return d; });
    // Active-mode peak per app: under the fleet-wide degrade policy every
    // app plans with its failure-mode footprint while any server is down;
    // otherwise only apps that cannot sit on their normal host shrink.
    for (std::size_t a = 0; a < n; ++a) {
      const bool degraded_app =
          config.degrade_all_apps ? fleet_degraded
                                  : down[normal_assignment[a]];
      peaks[a] = degraded_app ? failure_peaks[a] : normal_peaks[a];
    }
    const PlacementDecision decision =
        place_apps(peaks, normal_assignment, current, fleet, down);

    if (decision.unhosted > 0 && spares_scheduled < config.spare_servers) {
      const std::size_t at = b + config.spare_activation_slots;
      if (at < cal.size()) {
        activations[at] += 1;
        boundaries.insert(at);
        spares_scheduled += 1;
      }
    }

    for (std::size_t a = 0; a < n; ++a) {
      if (decision.hosts[a] == current[a] ||
          decision.hosts[a] == wlm::kUnhosted) {
        continue;
      }
      outages.push_back(wlm::OutageWindow{
          a, b, std::min(cal.size(), b + config.migration_outage_slots)});
      outcome.migrations += 1;
      app_migrations[a] += 1;
    }

    wlm::SchedulePhase phase;
    phase.start_slot = b;
    phase.hosts = decision.hosts;
    phase.failure_mode.assign(n, false);
    for (std::size_t a = 0; a < n; ++a) {
      phase.failure_mode[a] =
          config.degrade_all_apps
              ? fleet_degraded
              : decision.hosts[a] != normal_assignment[a];
    }
    phase.down = std::vector<bool>(down.begin(), down.end());
    current = decision.hosts;
    phases.push_back(std::move(phase));
  }

  // Telemetry faults: one channel per app, seeded from the timeline's
  // telemetry seed so a trial is a joint node+telemetry scenario from one
  // campaign seed. The schedule pulls every app's readings in slot order
  // over the surge-scaled demand — faults corrupt what the controller
  // *would have measured*.
  std::vector<wlm::TelemetryChannel> channels;
  wlm::ScheduleTelemetry schedule_telemetry;
  schedule_telemetry.degraded = config.degraded;
  if (config.telemetry.enabled()) {
    SplitMix64 streams(timeline.telemetry_seed);
    channels.reserve(n);
    for (std::size_t a = 0; a < n; ++a) {
      channels.emplace_back(config.telemetry, streams.next());
    }
    schedule_telemetry.observe =
        [&channels](std::size_t app, std::size_t,
                    std::span<const double> true_demand,
                    std::span<wlm::Observation> out) {
          channels[app].observe_block(true_demand, out);
        };
  }

  const wlm::ScheduleResult replay =
      wlm::run_event_schedule(active, normal, failure, fleet, phases, outages,
                              config.policy, wlm::kDefaultHistoryWindow,
                              schedule_telemetry);

  // Per-phase accounting.
  const double slot_hours =
      static_cast<double>(cal.minutes_per_sample()) / 60.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const wlm::SchedulePhase& phase = phases[p];
    const std::size_t end =
        p + 1 < phases.size() ? phases[p + 1].start_slot : cal.size();
    const double span_hours =
        static_cast<double>(end - phase.start_slot) * slot_hours;
    bool any_unhosted = false;
    std::size_t displaced = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (phase.hosts[a] == wlm::kUnhosted) {
        any_unhosted = true;
      } else if (phase.hosts[a] != normal_assignment[a]) {
        displaced += 1;
      }
    }
    if (any_unhosted) outcome.unsupported_hours += span_hours;
    outcome.degraded_app_hours +=
        static_cast<double>(displaced) * span_hours;
    const bool fleet_degraded =
        std::any_of(phase.down.begin(),
                    phase.down.begin() +
                        static_cast<std::ptrdiff_t>(pool.size()),
                    [](bool d) { return d; });
    if (fleet_degraded) outcome.failure_mode_hours += span_hours;
  }

  const auto minutes = static_cast<double>(cal.minutes_per_sample());
  for (std::size_t a = 0; a < n; ++a) {
    TrialAppOutcome& app = outcome.apps[a];
    app.name = demands[a].name();
    app.unserved_demand = replay.apps[a].unserved_demand;
    app.outage_unserved = replay.apps[a].outage_unserved;
    app.unhosted_slots = replay.apps[a].unhosted_slots;
    app.migrations = app_migrations[a];
    app.normal_mode = replay.apps[a].normal_mode;
    app.failure_mode = replay.apps[a].failure_mode;
    app.telemetry = replay.apps[a].telemetry;
    app.longest_degraded_minutes =
        std::max(app.normal_mode.longest_degraded_minutes,
                 app.failure_mode.longest_degraded_minutes);
    const auto breached = [](const wlm::ComplianceReport& report,
                             const qos::Requirement& req) {
      return slo::t_degr_breached(report, req.t_degr_minutes.value_or(0.0));
    };
    app.t_degr_breached = breached(app.normal_mode, normal[a].requirement) ||
                          breached(app.failure_mode, failure[a].requirement);
    if (app.t_degr_breached) outcome.t_degr_breaches += 1;
    outcome.violating_app_hours +=
        static_cast<double>(app.normal_mode.violating +
                            app.failure_mode.violating) *
        slot_hours;
    outcome.max_contiguous_degraded_minutes =
        std::max(outcome.max_contiguous_degraded_minutes,
                 app.longest_degraded_minutes);
    outcome.fallback_app_hours +=
        static_cast<double>(app.telemetry.fallback_intervals) * slot_hours;
    outcome.telemetry_degraded_app_hours +=
        static_cast<double>(app.normal_mode.degraded_telemetry +
                            app.failure_mode.degraded_telemetry) *
        slot_hours;
    outcome.telemetry_violating_app_hours +=
        static_cast<double>(app.normal_mode.violating_telemetry +
                            app.failure_mode.violating_telemetry) *
        slot_hours;
    outcome.longest_blackout_minutes =
        std::max(outcome.longest_blackout_minutes,
                 static_cast<double>(app.telemetry.longest_blackout) * minutes);
    outcome.telemetry.merge(app.telemetry);
  }
  outcome.unserved_demand = replay.unserved_demand;
  outcome.outage_unserved = replay.outage_unserved;
  return outcome;
}

}  // namespace ropus::faultsim
