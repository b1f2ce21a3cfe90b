#include "wlm/failure_drill.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "slo/kernel.h"

namespace ropus::wlm {

namespace {

void validate_phase(const SchedulePhase& phase, std::size_t apps,
                    std::size_t servers, std::size_t slots) {
  ROPUS_REQUIRE(phase.start_slot < slots, "phase starts beyond the trace");
  ROPUS_REQUIRE(phase.hosts.size() == apps, "phase hosts must cover every app");
  ROPUS_REQUIRE(phase.failure_mode.size() == apps,
                "phase modes must cover every app");
  ROPUS_REQUIRE(phase.down.size() == servers,
                "phase down flags must cover the pool");
  for (std::size_t a = 0; a < apps; ++a) {
    const std::size_t host = phase.hosts[a];
    if (host == kUnhosted) continue;
    ROPUS_REQUIRE(host < servers, "phase host out of range");
    ROPUS_REQUIRE(!phase.down[host], "phase hosts an app on a down server");
  }
}

}  // namespace

ScheduleResult run_event_schedule(
    std::span<const trace::DemandTrace> demands,
    std::span<const qos::Translation> normal,
    std::span<const qos::Translation> failure,
    std::span<const sim::ServerSpec> pool,
    std::span<const SchedulePhase> phases,
    std::span<const OutageWindow> outages, Policy policy,
    std::size_t history_window, const ScheduleTelemetry& telemetry) {
  static obs::Counter& runs = obs::counter("wlm.schedule.runs");
  static obs::Counter& slots = obs::counter("wlm.schedule.slots");
  static obs::Counter& phase_count = obs::counter("wlm.schedule.phases");
  static obs::Histogram& run_seconds = obs::histogram("wlm.schedule.seconds");
  runs.add(1);
  phase_count.add(phases.size());
  obs::ScopedSpan obs_span("wlm.run_event_schedule");
  obs::ScopedTimer obs_timer(run_seconds);

  const std::size_t n = demands.size();
  ROPUS_REQUIRE(n >= 1, "schedule needs workloads");
  ROPUS_REQUIRE(normal.size() == n && failure.size() == n,
                "one translation pair per workload");
  ROPUS_REQUIRE(!pool.empty(), "schedule needs a server pool");
  const trace::Calendar& cal = demands.front().calendar();
  for (const trace::DemandTrace& d : demands) {
    ROPUS_REQUIRE(d.calendar() == cal, "traces must share a calendar");
  }
  slots.add(cal.size());
  ROPUS_REQUIRE(!phases.empty(), "schedule needs at least one phase");
  ROPUS_REQUIRE(phases.front().start_slot == 0,
                "the first phase must start at slot 0");
  for (std::size_t p = 0; p < phases.size(); ++p) {
    validate_phase(phases[p], n, pool.size(), cal.size());
    if (p > 0) {
      ROPUS_REQUIRE(phases[p - 1].start_slot < phases[p].start_slot,
                    "phases must start at strictly increasing slots");
    }
  }

  // Per-app blackout lookup (few windows, whole-trace bitmaps are cheap).
  std::vector<std::vector<char>> in_outage(n,
                                           std::vector<char>(cal.size(), 0));
  for (const OutageWindow& w : outages) {
    ROPUS_REQUIRE(w.app < n, "outage window names an unknown app");
    ROPUS_REQUIRE(w.begin <= w.end, "outage window inverted");
    const std::size_t end = std::min(w.end, cal.size());
    for (std::size_t i = w.begin; i < end; ++i) in_outage[w.app][i] = 1;
  }

  const bool faulted = !telemetry.observations.empty();
  if (faulted) {
    ROPUS_REQUIRE(telemetry.observations.size() == n,
                  "one observation stream per workload");
    for (const std::vector<Observation>& stream : telemetry.observations) {
      ROPUS_REQUIRE(stream.size() == cal.size(),
                    "observation streams must cover the calendar");
    }
  }

  // One controller per app per mode; a controller resets whenever its app's
  // host or mode changes at a phase boundary (the container was re-placed).
  std::vector<Controller> normal_ctl;
  std::vector<Controller> failure_ctl;
  normal_ctl.reserve(n);
  failure_ctl.reserve(n);
  for (std::size_t a = 0; a < n; ++a) {
    normal_ctl.emplace_back(normal[a], policy, history_window,
                            telemetry.degraded);
    failure_ctl.emplace_back(failure[a], policy, history_window,
                             telemetry.degraded);
  }

  ScheduleResult result;
  result.apps.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    result.apps[a].name = demands[a].name();
    result.apps[a].granted.assign(cal.size(), 0.0);
    if (faulted) result.apps[a].fallback_slots.assign(cal.size(), false);
  }

  // Flight-recorder hookup: resolve app ids once (app_id takes a mutex),
  // then the per-slot cost is a stride check plus a thread-local append.
  obs::Recorder* const rec = obs::Recorder::active();
  std::vector<std::uint16_t> rec_app;
  if (rec != nullptr) {
    rec->set_calendar(static_cast<double>(cal.minutes_per_sample()),
                      cal.slots_per_day());
    rec_app.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
      rec_app[a] = rec->app_id(demands[a].name());
    }
  }

  std::vector<AllocationRequest> requests(n);
  std::vector<AllocationRequest> requested(pool.size());  // per server
  std::vector<slo::GrantScales> scales(pool.size());
  std::size_t phase_idx = 0;
  for (std::size_t i = 0; i < cal.size(); ++i) {
    while (phase_idx + 1 < phases.size() &&
           phases[phase_idx + 1].start_slot == i) {
      const SchedulePhase& prev = phases[phase_idx];
      ++phase_idx;
      const SchedulePhase& cur = phases[phase_idx];
      for (std::size_t a = 0; a < n; ++a) {
        if (cur.hosts[a] != prev.hosts[a] ||
            cur.failure_mode[a] != prev.failure_mode[a]) {
          (cur.failure_mode[a] ? failure_ctl[a] : normal_ctl[a]).reset();
        }
      }
    }
    const SchedulePhase& phase = phases[phase_idx];

    // Three passes: requests summed per host in ascending app order, one
    // grant per server, then each hosted app's grant.
    std::fill(requested.begin(), requested.end(), AllocationRequest{});
    for (std::size_t a = 0; a < n; ++a) {
      const bool silent = in_outage[a][i] || phase.hosts[a] == kUnhosted;
      if (silent) {
        requests[a] = AllocationRequest{};
        continue;
      }
      Controller& ctl =
          phase.failure_mode[a] ? failure_ctl[a] : normal_ctl[a];
      if (faulted) {
        requests[a] = ctl.observe(telemetry.observations[a][i]);
        result.apps[a].fallback_slots[i] = ctl.in_fallback();
      } else {
        requests[a] = ctl.step(demands[a][i]);
      }
      requested[phase.hosts[a]].cos1 += requests[a].cos1;
      requested[phase.hosts[a]].cos2 += requests[a].cos2;
    }

    for (std::size_t s = 0; s < pool.size(); ++s) {
      scales[s] = slo::grant_scales(pool[s].capacity(), requested[s].cos1,
                                    requested[s].cos2);
    }

    for (std::size_t a = 0; a < n; ++a) {
      ScheduleAppOutcome& app = result.apps[a];
      const std::size_t host = phase.hosts[a];
      if (host == kUnhosted) {
        app.unhosted_slots += 1;
      } else if (!in_outage[a][i]) {
        app.granted[i] = scales[host].grant(requests[a].cos1,
                                            requests[a].cos2);
      }
      const double d = demands[a][i];
      if (d > app.granted[i]) {
        const double lost = d - app.granted[i];
        app.unserved_demand += lost;
        if (in_outage[a][i]) app.outage_unserved += lost;
      }
    }

    if (rec != nullptr && rec->should_record(i)) {
      const std::uint16_t section = rec->section();
      for (std::size_t a = 0; a < n; ++a) {
        obs::SlotRecord record;
        record.slot = static_cast<std::uint32_t>(i);
        record.app = rec_app[a];
        record.section = section;
        record.demand = demands[a][i];
        record.cos1 = requests[a].cos1;
        record.cos2 = requests[a].cos2;
        // `granted` is copied bit-for-bit from the schedule result, so
        // compliance recomputed from a stride-1 recording matches the batch
        // verdict exactly. satisfied2 is the CoS1-first estimate.
        record.granted = result.apps[a].granted[i];
        record.satisfied2 = std::min(
            requests[a].cos2, std::max(0.0, record.granted - requests[a].cos1));
        if (faulted) {
          record.telemetry = static_cast<std::uint8_t>(
              static_cast<int>(telemetry.observations[a][i].kind) + 1);
          if (result.apps[a].fallback_slots[i]) {
            record.flags |= obs::SlotRecord::kFallback;
          }
        } else {
          record.telemetry =
              static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
        }
        if (phase.failure_mode[a]) record.flags |= obs::SlotRecord::kFailureMode;
        if (phase.hosts[a] == kUnhosted) record.flags |= obs::SlotRecord::kUnhosted;
        if (in_outage[a][i]) record.flags |= obs::SlotRecord::kOutage;
        rec->append(record);
      }
    }
  }

  for (std::size_t a = 0; a < n; ++a) {
    if (faulted) {
      result.apps[a].telemetry = normal_ctl[a].health();
      result.apps[a].telemetry.merge(failure_ctl[a].health());
    }
    result.unserved_demand += result.apps[a].unserved_demand;
    result.outage_unserved += result.apps[a].outage_unserved;
  }
  return result;
}

DrillResult run_failure_drill(
    std::span<const trace::DemandTrace> demands,
    std::span<const qos::Translation> normal,
    std::span<const qos::Translation> failure,
    const placement::Assignment& normal_assignment,
    const placement::Assignment& failure_assignment,
    std::span<const sim::ServerSpec> pool, std::size_t failed_server,
    const DrillConfig& config) {
  const std::size_t n = demands.size();
  ROPUS_REQUIRE(n >= 1, "drill needs workloads");
  ROPUS_REQUIRE(normal.size() == n && failure.size() == n,
                "one translation pair per workload");
  placement::validate_assignment(normal_assignment, n, pool.size());
  placement::validate_assignment(failure_assignment, n, pool.size());
  ROPUS_REQUIRE(failed_server < pool.size(), "failed server out of range");
  const trace::Calendar& cal = demands.front().calendar();
  ROPUS_REQUIRE(config.failure_slot < cal.size(),
                "failure slot beyond the trace");
  for (std::size_t a = 0; a < n; ++a) {
    ROPUS_REQUIRE(failure_assignment[a] != failed_server,
                  "failure assignment still uses the failed server");
  }

  SchedulePhase before;
  before.start_slot = 0;
  before.hosts = normal_assignment;
  before.failure_mode.assign(n, false);
  before.down.assign(pool.size(), false);

  SchedulePhase after;
  after.start_slot = config.failure_slot;
  after.hosts = failure_assignment;
  after.failure_mode.assign(n, true);
  after.down.assign(pool.size(), false);
  after.down[failed_server] = true;

  std::vector<SchedulePhase> phases;
  if (config.failure_slot > 0) phases.push_back(std::move(before));
  phases.push_back(std::move(after));

  const std::size_t outage_end =
      std::min(cal.size(), config.failure_slot + config.migration_outage_slots);
  std::vector<OutageWindow> outages;
  for (std::size_t a = 0; a < n; ++a) {
    if (normal_assignment[a] == failed_server) {
      outages.push_back(OutageWindow{a, config.failure_slot, outage_end});
    }
  }

  const ScheduleResult replay = run_event_schedule(
      demands, normal, failure, pool, phases, outages, config.policy);

  DrillResult result;
  result.failed_server = failed_server;
  result.outage_unserved = replay.outage_unserved;
  result.apps.resize(n);
  const auto minutes = static_cast<double>(cal.minutes_per_sample());
  for (std::size_t a = 0; a < n; ++a) {
    DrillAppOutcome& app = result.apps[a];
    app.name = demands[a].name();
    app.affected = normal_assignment[a] == failed_server;
    if (app.affected) result.affected_apps += 1;
    app.unserved_demand = replay.apps[a].unserved_demand;
    const std::span<const double> d = demands[a].values();
    const std::span<const double> g = replay.apps[a].granted;
    app.before = check_compliance_range(
        d.subspan(0, config.failure_slot),
        g.subspan(0, config.failure_slot), normal[a].requirement, minutes);
    app.after = check_compliance_range(
        d.subspan(config.failure_slot), g.subspan(config.failure_slot),
        failure[a].requirement, minutes);
  }
  return result;
}

}  // namespace ropus::wlm
