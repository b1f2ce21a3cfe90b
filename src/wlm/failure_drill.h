// Failure drill: replay server failures through the execution simulation.
//
// The failover planner (Section VI-C) answers the *static* question — do
// the survivors have enough capacity? This drill answers the performability
// question in the paper's title: what do applications actually experience
// through the transition? The fleet runs its normal placement until the
// failure instant, the failed server's containers suffer a migration outage,
// and then everyone runs the failure-mode configuration on the survivors.
//
// Three entry points:
//  * run_event_schedule replays an arbitrary sequence of fleet
//    configurations (failures, repairs, re-placements, unplaceable
//    applications) — the engine behind the Monte-Carlo fault-injection
//    campaigns in faultsim/;
//  * run_failure_drill is the classic single-failure drill, now a thin
//    wrapper that builds a two-phase schedule;
//  * run_isolated replays one application alone, the control loop of
//    `ropus_cli wlm` and the telemetry ablation, as a one-phase schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "placement/assignment.h"
#include "qos/allocation.h"
#include "sim/server.h"
#include "trace/demand_trace.h"
#include "wlm/compliance.h"
#include "wlm/controller.h"

namespace ropus::wlm {

/// Slots per block of run_event_schedule's replay.
inline constexpr std::size_t kScheduleBlockSlots = 128;

/// Sentinel host index: the application has no live server during a phase
/// (an infeasible re-placement); its demand goes entirely unserved.
inline constexpr std::size_t kUnhosted = static_cast<std::size_t>(-1);

/// One contiguous stretch of the calendar with a fixed fleet configuration.
/// Phases are supplied in ascending `start_slot` order; the first phase
/// must start at slot 0 and each phase runs until the next one begins.
struct SchedulePhase {
  std::size_t start_slot = 0;
  /// app -> pool server index, or kUnhosted when nothing can host it.
  placement::Assignment hosts;
  /// Per app: run the failure-mode translation instead of the normal one.
  std::vector<bool> failure_mode;
  /// Per pool server: down during this phase (hosts must avoid them).
  std::vector<bool> down;
};

/// A migration blackout: application `app` serves nothing in [begin, end)
/// while its container restarts on the destination server.
struct OutageWindow {
  std::size_t app = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct ScheduleAppOutcome {
  std::string name;
  std::vector<double> granted;   // per-slot granted allocation (CPUs)
  double unserved_demand = 0.0;  // CPU-intervals lost for any reason
  double outage_unserved = 0.0;  // lost inside migration blackouts
  std::size_t unhosted_slots = 0;
  /// Aggregated over the app's two per-mode controllers; all-zero when the
  /// run had perfect telemetry.
  HealthReport telemetry;
  /// Per-slot, one byte each: 1 when the active controller served this
  /// slot from its fallback policy, else 0. Empty when the run had perfect
  /// telemetry.
  std::vector<std::uint8_t> fallback_slots;
  /// The slots the app ran in each mode, judged against that mode's
  /// requirement; degradations on fallback slots are charged to telemetry.
  ComplianceReport normal_mode;
  ComplianceReport failure_mode;
};

struct ScheduleResult {
  std::vector<ScheduleAppOutcome> apps;
  double unserved_demand = 0.0;
  double outage_unserved = 0.0;
};

/// Telemetry faults for a scheduled run: where each controller's readings
/// come from, plus the degraded-mode policy the controllers apply.
///
/// The pull contract: the schedule calls
/// `observe(app, first_slot, true_demand, out)` once per (app, block), and
/// the source fills `out[k]` with the reading of slot `first_slot + k`;
/// `true_demand[k]` is the app's trace value there, and both spans cover
/// the block's slots. Per app the blocks arrive in ascending order and
/// tile the calendar, so every (app, slot) is pulled exactly once, in slot
/// order, silent slots (outage, unhosted) included. A stateful source such
/// as one TelemetryChannel per app (TelemetryChannel::observe_block)
/// therefore consumes each trace whole and in order, exactly as a stream
/// sampled up front would — which keeps the channels' common random
/// numbers intact. Calls for different apps interleave (block by block), so
/// a source must keep each app's state apart. An empty `observe` means
/// perfect telemetry.
struct ScheduleTelemetry {
  std::function<void(std::size_t app, std::size_t first_slot,
                     std::span<const double> true_demand,
                     std::span<Observation> out)>
      observe;
  DegradedModeConfig degraded;
};

/// Replays an event schedule through the two-CoS execution simulation.
///  * `demands`: one trace per application (shared calendar);
///  * `normal` / `failure`: per-app translations for the two modes
///    (parallel to `demands`);
///  * `pool`: server specs; phase hosts index into it;
///  * `phases`: the fleet configuration over time (validated);
///  * `outages`: migration blackouts (demand inside counts as unserved);
///  * `policy` / `history_window`: how every controller observes demand;
///  * `telemetry`: when `observe` is set, controllers step on the readings
///    it returns instead of the true demand (grants and unserved demand
///    still run against the true traces).
/// Each slot grants every server through slo::grant_scales. Controllers
/// carry per-mode history; a controller is reset whenever its
/// application's host or mode changes at a phase boundary (the container
/// was just re-placed, so its history is gone). A single phase over a
/// placed pool is a plain shared-server run.
///
/// Each slot is judged where it is granted, including outage and unhosted
/// slots (demand with no grant violates): it feeds the app's
/// slo::BandAccumulator of the mode it runs, against band_of that mode's
/// Translation::requirement, and ends the other mode's degraded run. The
/// counts come back as ScheduleAppOutcome::normal_mode / failure_mode.
///
/// The calendar is replayed in blocks of kScheduleBlockSlots slots. Within
/// a block each app, in ascending order, pulls the block's readings in one
/// call, steps its controller through each run of hosted, non-outage
/// slots in one call (Controller::observe_run / step_run) and adds its
/// requests into per-(server, slot) sums; then every (server, slot) is
/// granted; then each app takes and judges its grants. Each sum still adds
/// the apps in ascending order from zero, so the result is bit for bit the
/// slot-by-slot replay's, while one app's trace, telemetry and grants stay
/// in cache for a whole block.
ScheduleResult run_event_schedule(
    std::span<const trace::DemandTrace> demands,
    std::span<const qos::Translation> normal,
    std::span<const qos::Translation> failure,
    std::span<const sim::ServerSpec> pool,
    std::span<const SchedulePhase> phases,
    std::span<const OutageWindow> outages, Policy policy,
    std::size_t history_window = kDefaultHistoryWindow,
    const ScheduleTelemetry& telemetry = {});

/// Replays application `demand` alone, in one phase, on a server of
/// ceil(translation.peak_allocation()) + 1 CPUs, with its readings pulled
/// from `channel` one block at a time (TelemetryChannel::observe_block; a
/// channel whose model enables no fault reads the true demand). No request
/// exceeds the peak allocation, so every slo::grant_scales factor is
/// exactly 1 and each grant equals its request bit for bit: granted =
/// requested, as for a controller with the server to itself. The outcome's
/// `telemetry` and `fallback_slots` are always filled, and every slot is
/// judged in `normal_mode`.
ScheduleAppOutcome run_isolated(const trace::DemandTrace& demand,
                                const qos::Translation& translation,
                                Policy policy, std::size_t history_window,
                                TelemetryChannel& channel,
                                const DegradedModeConfig& degraded = {});

struct DrillConfig {
  /// Observation index at which the server dies.
  std::size_t failure_slot = 0;
  /// Intervals an affected container is down while it migrates (its demand
  /// during the outage counts as unserved).
  std::size_t migration_outage_slots = 1;
  /// Controller policy used throughout.
  Policy policy = Policy::kClairvoyant;
};

struct DrillAppOutcome {
  std::string name;
  bool affected = false;        // lived on the failed server
  ComplianceReport before;      // normal mode, up to the failure slot
  ComplianceReport after;       // failure mode, from the failure slot on
  double unserved_demand = 0.0; // CPU-intervals lost (outage + contention)
};

struct DrillResult {
  std::size_t failed_server = 0;
  std::vector<DrillAppOutcome> apps;
  /// Aggregate demand lost during the migration outage (CPU-intervals).
  double outage_unserved = 0.0;
  std::size_t affected_apps = 0;
};

/// Replays the drill.
///  * `demands`: one trace per application (shared calendar);
///  * `normal` / `failure`: per-app translations for the two modes
///    (parallel to `demands`);
///  * `normal_assignment`: app -> pool server before the failure;
///  * `failure_assignment`: app -> pool server after (must avoid
///    `failed_server`);
///  * `pool`: server specs; `failed_server` indexes into it.
/// Every app runs normal mode before the failure instant and failure mode
/// from it on, so `before` and `after` are the schedule's two per-mode
/// counts.
DrillResult run_failure_drill(
    std::span<const trace::DemandTrace> demands,
    std::span<const qos::Translation> normal,
    std::span<const qos::Translation> failure,
    const placement::Assignment& normal_assignment,
    const placement::Assignment& failure_assignment,
    std::span<const sim::ServerSpec> pool, std::size_t failed_server,
    const DrillConfig& config);

}  // namespace ropus::wlm
