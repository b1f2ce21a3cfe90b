#include "wlm/failure_drill.h"

#include <algorithm>
#include <cmath>

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

  const bool faulted = static_cast<bool>(telemetry.observe);

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

  // One judge per app per mode, like the controllers.
  const auto minutes = static_cast<double>(cal.minutes_per_sample());
  std::vector<slo::BandAccumulator> normal_judge(n,
                                                 slo::BandAccumulator(minutes));
  std::vector<slo::BandAccumulator> failure_judge(
      n, slo::BandAccumulator(minutes));

  ScheduleResult result;
  result.apps.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    result.apps[a].name = demands[a].name();
    result.apps[a].granted.assign(cal.size(), 0.0);
    if (faulted) result.apps[a].fallback_slots.assign(cal.size(), 0);
  }

  // Flight-recorder hookup: resolve app ids once (app_id takes a mutex),
  // then the per-slot cost is a stride check plus a thread-local append.
  obs::Recorder* const rec = obs::Recorder::active();
  std::vector<std::uint16_t> rec_app;
  if (rec != nullptr) {
    rec->set_calendar(minutes, cal.slots_per_day());
    rec_app.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
      rec_app[a] = rec->app_id(demands[a].name());
    }
  }

  // Per-block buffers, indexed [app or server][slot - block start]: each
  // app's requests, each server's summed requests and grant, and (for the
  // recorder) the class of each reading; plus the readings of the app
  // being stepped.
  constexpr std::size_t kBlock = kScheduleBlockSlots;
  const std::size_t servers = pool.size();
  std::vector<AllocationRequest> requests(n * kBlock);
  std::vector<AllocationRequest> requested(servers * kBlock);
  std::vector<slo::GrantScales> scales(servers * kBlock);
  std::vector<ObservationClass> kinds(rec != nullptr && faulted ? n * kBlock
                                                                : 0);
  std::vector<Observation> readings(faulted ? kBlock : 0);

  // The phases a block crosses: [begin, end) runs phases[phase].
  struct Segment {
    std::size_t begin;
    std::size_t end;
    std::size_t phase;
  };
  std::vector<Segment> segments;
  std::size_t phase_idx = 0;  // the phase running at the block's first slot
  for (std::size_t b0 = 0; b0 < cal.size(); b0 += kBlock) {
    const std::size_t b1 = std::min(cal.size(), b0 + kBlock);
    segments.clear();
    for (std::size_t i = b0; i < b1;) {
      if (phase_idx + 1 < phases.size() &&
          phases[phase_idx + 1].start_slot == i) {
        ++phase_idx;
      }
      const std::size_t next =
          phase_idx + 1 < phases.size()
              ? std::min(b1, phases[phase_idx + 1].start_slot)
              : b1;
      segments.push_back(Segment{i, next, phase_idx});
      i = next;
    }

    // Pass 1: each app pulls the block's readings, steps its controller
    // through the block, then adds its requests into its host's per-slot
    // sums.
    std::fill(requested.begin(), requested.end(), AllocationRequest{});
    const std::size_t block_len = b1 - b0;
    for (std::size_t a = 0; a < n; ++a) {
      const double* const demand = demands[a].values().data();
      const char* const outage = in_outage[a].data();
      AllocationRequest* const req = requests.data() + a * kBlock;
      std::uint8_t* const fallback =
          faulted ? result.apps[a].fallback_slots.data() : nullptr;
      if (faulted) {
        telemetry.observe(a, b0, std::span(demand + b0, block_len),
                          std::span(readings.data(), block_len));
        if (!kinds.empty()) {
          for (std::size_t j = 0; j < block_len; ++j) {
            kinds[a * kBlock + j] = readings[j].kind;
          }
        }
      }
      for (const Segment& seg : segments) {
        const SchedulePhase& phase = phases[seg.phase];
        const bool failure_mode = phase.failure_mode[a];
        Controller& ctl = failure_mode ? failure_ctl[a] : normal_ctl[a];
        if (seg.phase > 0 && seg.begin == phase.start_slot) {
          const SchedulePhase& prev = phases[seg.phase - 1];
          if (phase.hosts[a] != prev.hosts[a] ||
              failure_mode != prev.failure_mode[a]) {
            ctl.reset();
          }
        }
        if (phase.hosts[a] == kUnhosted) {
          std::fill(req + (seg.begin - b0), req + (seg.end - b0),
                    AllocationRequest{});
          continue;
        }
        // Outage slots request nothing; the controller steps through each
        // run of slots between them in one call.
        for (std::size_t i = seg.begin; i < seg.end;) {
          if (outage[i] != 0) {
            req[i - b0] = AllocationRequest{};
            ++i;
            continue;
          }
          std::size_t end = i + 1;
          while (end < seg.end && outage[end] == 0) ++end;
          const std::size_t j = i - b0;
          const std::size_t len = end - i;
          if (faulted) {
            ctl.observe_run(std::span(readings.data() + j, len),
                            std::span(req + j, len),
                            std::span(fallback + i, len));
          } else {
            ctl.step_run(std::span(demand + i, len), std::span(req + j, len));
          }
          i = end;
        }
      }
      // The sums, in a loop of their own: interleaved with the controller
      // calls above, each read-modify-write cost about as much as a step.
      for (const Segment& seg : segments) {
        const std::size_t host = phases[seg.phase].hosts[a];
        if (host == kUnhosted) continue;
        AllocationRequest* const sum = requested.data() + host * kBlock;
        for (std::size_t i = seg.begin; i < seg.end; ++i) {
          if (outage[i] != 0) continue;
          const std::size_t j = i - b0;
          sum[j].cos1 += req[j].cos1;
          sum[j].cos2 += req[j].cos2;
        }
      }
    }

    // Pass 2: one grant per (server, slot).
    for (std::size_t s = 0; s < servers; ++s) {
      const double capacity = pool[s].capacity();
      for (std::size_t j = 0; j < block_len; ++j) {
        const AllocationRequest& sum = requested[s * kBlock + j];
        scales[s * kBlock + j] =
            slo::grant_scales(capacity, sum.cos1, sum.cos2);
      }
    }

    // Pass 3: each app takes its grants, counts what went unserved and
    // judges each slot in the mode it ran. A segment ends the other mode's
    // degraded run; end_run is idempotent, so once per segment is once per
    // slot.
    for (std::size_t a = 0; a < n; ++a) {
      ScheduleAppOutcome& app = result.apps[a];
      const double* const demand = demands[a].values().data();
      const char* const outage = in_outage[a].data();
      const AllocationRequest* const req = requests.data() + a * kBlock;
      const std::uint8_t* const fallback =
          faulted ? app.fallback_slots.data() : nullptr;
      for (const Segment& seg : segments) {
        const SchedulePhase& phase = phases[seg.phase];
        const std::size_t host = phase.hosts[a];
        const slo::GrantScales* const grant =
            host == kUnhosted ? nullptr : scales.data() + host * kBlock;
        const bool failure_mode = phase.failure_mode[a];
        slo::BandAccumulator& judge =
            failure_mode ? failure_judge[a] : normal_judge[a];
        const slo::Band band =
            band_of((failure_mode ? failure : normal)[a].requirement);
        (failure_mode ? normal_judge[a] : failure_judge[a]).end_run();
        for (std::size_t i = seg.begin; i < seg.end; ++i) {
          const std::size_t j = i - b0;
          if (grant == nullptr) {
            app.unhosted_slots += 1;
          } else if (outage[i] == 0) {
            app.granted[i] = grant[j].grant(req[j].cos1, req[j].cos2);
          }
          if (demand[i] > app.granted[i]) {
            const double lost = demand[i] - app.granted[i];
            app.unserved_demand += lost;
            if (outage[i] != 0) app.outage_unserved += lost;
          }
          judge.observe(demand[i], app.granted[i], band,
                        fallback != nullptr && fallback[i] != 0);
        }
      }
    }

    if (rec == nullptr) continue;
    for (const Segment& seg : segments) {
      const SchedulePhase& phase = phases[seg.phase];
      for (std::size_t i = seg.begin; i < seg.end; ++i) {
        if (!rec->should_record(i)) continue;
        const std::size_t j = i - b0;
        const std::uint16_t section = rec->section();
        for (std::size_t a = 0; a < n; ++a) {
          const AllocationRequest& req = requests[a * kBlock + j];
          obs::SlotRecord record;
          record.slot = static_cast<std::uint32_t>(i);
          record.app = rec_app[a];
          record.section = section;
          record.demand = demands[a][i];
          record.cos1 = req.cos1;
          record.cos2 = req.cos2;
          // `granted` is copied bit-for-bit from the schedule result, so
          // compliance recomputed from a stride-1 recording matches the
          // batch verdict exactly. satisfied2 is the CoS1-first estimate.
          record.granted = result.apps[a].granted[i];
          record.satisfied2 =
              std::min(req.cos2, std::max(0.0, record.granted - req.cos1));
          if (faulted) {
            record.telemetry = static_cast<std::uint8_t>(
                static_cast<int>(kinds[a * kBlock + j]) + 1);
            if (result.apps[a].fallback_slots[i]) {
              record.flags |= obs::SlotRecord::kFallback;
            }
          } else {
            record.telemetry =
                static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
          }
          if (phase.failure_mode[a]) {
            record.flags |= obs::SlotRecord::kFailureMode;
          }
          if (phase.hosts[a] == kUnhosted) {
            record.flags |= obs::SlotRecord::kUnhosted;
          }
          if (in_outage[a][i] != 0) record.flags |= obs::SlotRecord::kOutage;
          rec->append(record);
        }
      }
    }
  }

  for (std::size_t a = 0; a < n; ++a) {
    if (faulted) {
      result.apps[a].telemetry = normal_ctl[a].health();
      result.apps[a].telemetry.merge(failure_ctl[a].health());
    }
    result.apps[a].normal_mode = normal_judge[a].counts();
    result.apps[a].failure_mode = failure_judge[a].counts();
    result.unserved_demand += result.apps[a].unserved_demand;
    result.outage_unserved += result.apps[a].outage_unserved;
  }
  return result;
}

ScheduleAppOutcome run_isolated(const trace::DemandTrace& demand,
                                const qos::Translation& translation,
                                Policy policy, std::size_t history_window,
                                TelemetryChannel& channel,
                                const DegradedModeConfig& degraded) {
  sim::ServerSpec server;
  server.name = "isolated";
  server.cpus =
      static_cast<std::size_t>(std::ceil(translation.peak_allocation())) + 1;
  SchedulePhase phase;
  phase.hosts = {0};
  phase.failure_mode = {false};
  phase.down = {false};
  ScheduleTelemetry telemetry;
  telemetry.observe = [&channel](std::size_t, std::size_t,
                                 std::span<const double> true_demand,
                                 std::span<Observation> out) {
    channel.observe_block(true_demand, out);
  };
  telemetry.degraded = degraded;
  ScheduleResult result = run_event_schedule(
      std::span(&demand, 1), std::span(&translation, 1),
      std::span(&translation, 1), std::span(&server, 1), std::span(&phase, 1),
      {}, policy, history_window, telemetry);
  return std::move(result.apps.front());
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
  for (std::size_t a = 0; a < n; ++a) {
    DrillAppOutcome& app = result.apps[a];
    app.name = demands[a].name();
    app.affected = normal_assignment[a] == failed_server;
    if (app.affected) result.affected_apps += 1;
    app.unserved_demand = replay.apps[a].unserved_demand;
    app.before = replay.apps[a].normal_mode;
    app.after = replay.apps[a].failure_mode;
  }
  return result;
}

}  // namespace ropus::wlm
