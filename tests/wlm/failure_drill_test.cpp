// The performability failure drill.
#include "wlm/failure_drill.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "slo/kernel.h"

namespace ropus::wlm {
namespace {

using trace::Calendar;
using trace::DemandTrace;

Calendar tiny() { return Calendar(1, 720); }  // 14 observations

qos::Requirement band(double u_low, double u_high, double u_degr) {
  qos::Requirement r;
  r.u_low = u_low;
  r.u_high = u_high;
  r.u_degr = u_degr;
  r.m_percent = 100.0;
  return r;
}

struct Rig {
  std::vector<DemandTrace> demands;
  std::vector<qos::Translation> normal;
  std::vector<qos::Translation> failure;
  std::vector<sim::ServerSpec> pool;
  placement::Assignment normal_assignment;
  placement::Assignment failure_assignment;
};

// Four flat 2-CPU apps. Normal: two per 16-way server (4 CPUs of
// allocation each). Failure of server 0: everyone on server 1 under a
// hotter failure band (2.5 CPUs each; 10 total fits 16).
Rig make_rig() {
  Rig rig;
  const qos::CosCommitment cos2{1.0, 10080.0};
  for (int i = 0; i < 4; ++i) {
    rig.demands.emplace_back("app-" + std::to_string(i), tiny(),
                             std::vector<double>(tiny().size(), 2.0));
    rig.normal.push_back(
        qos::translate(rig.demands.back(), band(0.5, 0.66, 0.9), cos2));
    rig.failure.push_back(
        qos::translate(rig.demands.back(), band(0.8, 0.9, 0.95), cos2));
  }
  rig.pool = sim::homogeneous_pool(2, 16);
  rig.normal_assignment = {0, 0, 1, 1};
  rig.failure_assignment = {1, 1, 1, 1};
  return rig;
}

TEST(FailureDrill, AffectedAppsIdentified) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 7;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  EXPECT_EQ(r.affected_apps, 2u);
  EXPECT_TRUE(r.apps[0].affected);
  EXPECT_TRUE(r.apps[1].affected);
  EXPECT_FALSE(r.apps[2].affected);
}

TEST(FailureDrill, OutageLosesExactlyTheAffectedDemand) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 7;
  cfg.migration_outage_slots = 2;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  // Two affected apps x 2 CPUs x 2 slots of outage.
  EXPECT_NEAR(r.outage_unserved, 8.0, 1e-9);
  // Unaffected apps lose nothing (their servers never contend here).
  EXPECT_DOUBLE_EQ(r.apps[2].unserved_demand, 0.0);
  EXPECT_DOUBLE_EQ(r.apps[3].unserved_demand, 0.0);
}

TEST(FailureDrill, CompliantBeforeAndAfterWhenCapacitySuffices) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 7;
  cfg.migration_outage_slots = 1;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  for (const DrillAppOutcome& app : r.apps) {
    // Before: ideal utilization 0.5 everywhere -> fully acceptable.
    EXPECT_EQ(app.before.violating, 0u) << app.name;
    EXPECT_EQ(app.before.degraded, 0u) << app.name;
    // After: survivors have room; only the outage intervals violate, and
    // only for affected apps.
    if (app.affected) {
      EXPECT_EQ(app.after.violating, cfg.migration_outage_slots) << app.name;
    } else {
      EXPECT_EQ(app.after.violating, 0u) << app.name;
    }
  }
}

TEST(FailureDrill, OverloadedSurvivorSqueezesEveryone) {
  // Keep the strict normal band for failure mode too: 4 apps x 4 CPUs = 16
  // requested on one 16-way survivor — it exactly fits, so instead shrink
  // the survivor to 8 CPUs via a custom pool to force contention.
  Rig rig = make_rig();
  rig.failure = rig.normal;  // no relaxation
  rig.pool = {sim::ServerSpec{"a", 16}, sim::ServerSpec{"b", 8}};
  DrillConfig cfg;
  cfg.failure_slot = 7;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  // 16 CPUs requested on an 8-CPU survivor: grants halve, utilization 1.0
  // > U_degr -> violations after the failure for every app (grants exactly
  // meet demand, so only the outage itself loses work).
  for (const DrillAppOutcome& app : r.apps) {
    EXPECT_GT(app.after.violating, 0u) << app.name;
    if (app.affected) {
      EXPECT_GT(app.unserved_demand, 0.0) << app.name;
    }
  }
}

TEST(FailureDrill, FailureAtSlotZero) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 0;
  cfg.migration_outage_slots = 1;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  // No pre-failure stretch exists; the whole trace runs failure mode.
  EXPECT_NEAR(r.outage_unserved, 4.0, 1e-9);  // 2 apps x 2 CPUs x 1 slot
  for (const DrillAppOutcome& app : r.apps) {
    EXPECT_EQ(app.before.intervals, 0u) << app.name;
    EXPECT_EQ(app.after.intervals, tiny().size()) << app.name;
  }
}

TEST(FailureDrill, FailureAtLastSlot) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = tiny().size() - 1;
  cfg.migration_outage_slots = 1;
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  EXPECT_NEAR(r.outage_unserved, 4.0, 1e-9);  // the one remaining slot
  for (const DrillAppOutcome& app : r.apps) {
    EXPECT_EQ(app.before.intervals, tiny().size() - 1) << app.name;
    EXPECT_EQ(app.before.violating, 0u) << app.name;
    EXPECT_EQ(app.after.intervals, 1u) << app.name;
  }
}

TEST(FailureDrill, OutageLongerThanRemainingTraceIsClamped) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 12;               // two slots remain
  cfg.migration_outage_slots = 100;    // far beyond the trace end
  const DrillResult r = run_failure_drill(
      rig.demands, rig.normal, rig.failure, rig.normal_assignment,
      rig.failure_assignment, rig.pool, 0, cfg);
  // 2 affected apps x 2 CPUs x the 2 slots that actually exist.
  EXPECT_NEAR(r.outage_unserved, 8.0, 1e-9);
}

void expect_counts_equal(const ComplianceReport& got,
                         const ComplianceReport& want) {
  EXPECT_EQ(got.intervals, want.intervals);
  EXPECT_EQ(got.idle, want.idle);
  EXPECT_EQ(got.acceptable, want.acceptable);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.violating, want.violating);
  EXPECT_EQ(got.degraded_telemetry, want.degraded_telemetry);
  EXPECT_EQ(got.violating_telemetry, want.violating_telemetry);
  EXPECT_EQ(got.longest_degraded_minutes, want.longest_degraded_minutes);
}

TEST(FailureDrill, BeforeAndAfterAreEachSideJudgedAlone) {
  // Noisy demand under a reactive controller, migration outages and a
  // survivor too small for everyone: every band class, and degraded runs
  // that reach the failure instant.
  const Calendar cal(1, 60);
  const qos::CosCommitment cos2{1.0, 10080.0};
  Rng rng(11);
  Rig rig;
  for (int a = 0; a < 4; ++a) {
    std::vector<double> v(cal.size());
    for (double& x : v) x = rng.uniform(0.5, 3.0);
    rig.demands.emplace_back("app-" + std::to_string(a), cal, std::move(v));
    rig.normal.push_back(
        qos::translate(rig.demands.back(), band(0.5, 0.66, 0.9), cos2));
    rig.failure.push_back(
        qos::translate(rig.demands.back(), band(0.8, 0.9, 0.95), cos2));
  }
  rig.pool = {sim::ServerSpec{"a", 16}, sim::ServerSpec{"b", 10}};
  rig.normal_assignment = {0, 0, 1, 1};
  rig.failure_assignment = {1, 1, 1, 1};
  const auto minutes = static_cast<double>(cal.minutes_per_sample());
  ComplianceReport seen;
  for (const std::size_t f :
       {std::size_t{0}, std::size_t{1}, std::size_t{70}, cal.size() - 1}) {
    SCOPED_TRACE("failure slot " + std::to_string(f));
    DrillConfig cfg;
    cfg.failure_slot = f;
    cfg.migration_outage_slots = 3;
    cfg.policy = Policy::kReactive;
    const DrillResult r = run_failure_drill(
        rig.demands, rig.normal, rig.failure, rig.normal_assignment,
        rig.failure_assignment, rig.pool, 0, cfg);

    // The drill's schedule, replayed for its grants.
    SchedulePhase before;
    before.hosts = rig.normal_assignment;
    before.failure_mode.assign(4, false);
    before.down.assign(2, false);
    SchedulePhase after;
    after.start_slot = f;
    after.hosts = rig.failure_assignment;
    after.failure_mode.assign(4, true);
    after.down = {true, false};
    std::vector<SchedulePhase> phases;
    if (f > 0) phases.push_back(before);
    phases.push_back(after);
    const std::vector<OutageWindow> outages{{0, f, f + 3}, {1, f, f + 3}};
    const ScheduleResult replay =
        run_event_schedule(rig.demands, rig.normal, rig.failure, rig.pool,
                           phases, outages, Policy::kReactive);

    for (std::size_t a = 0; a < 4; ++a) {
      const std::span<const double> d = rig.demands[a].values();
      const std::span<const double> g = replay.apps[a].granted;
      expect_counts_equal(
          r.apps[a].before,
          slo::accumulate_bands(d.first(f), g.first(f),
                                band_of(rig.normal[a].requirement), minutes));
      expect_counts_equal(
          r.apps[a].after,
          slo::accumulate_bands(d.subspan(f), g.subspan(f),
                                band_of(rig.failure[a].requirement),
                                minutes));
      for (const ComplianceReport* c : {&r.apps[a].before, &r.apps[a].after}) {
        seen.degraded += c->degraded;
        seen.violating += c->violating;
      }
    }
  }
  EXPECT_GT(seen.degraded, 0u);
  EXPECT_GT(seen.violating, 0u);
}

TEST(EventSchedule, UnhostedAppRecordedNotFatal) {
  Rig rig = make_rig();
  SchedulePhase normal_phase;
  normal_phase.start_slot = 0;
  normal_phase.hosts = rig.normal_assignment;
  normal_phase.failure_mode.assign(4, false);
  normal_phase.down.assign(2, false);

  SchedulePhase degraded;  // server 0 dies, app 0 finds no home
  degraded.start_slot = 7;
  degraded.hosts = {kUnhosted, 1, 1, 1};
  degraded.failure_mode.assign(4, true);
  degraded.down = {true, false};

  const std::vector<SchedulePhase> phases{normal_phase, degraded};
  const ScheduleResult r =
      run_event_schedule(rig.demands, rig.normal, rig.failure, rig.pool,
                         phases, {}, Policy::kClairvoyant);
  EXPECT_EQ(r.apps[0].unhosted_slots, tiny().size() - 7);
  // The unhosted app loses its whole demand over those slots.
  EXPECT_NEAR(r.apps[0].unserved_demand,
              2.0 * static_cast<double>(tiny().size() - 7), 1e-9);
  EXPECT_EQ(r.apps[1].unhosted_slots, 0u);
}

TEST(EventSchedule, SinglePhaseSharesOneServer) {
  // Two flat all-CoS2 containers (demand 2, burst factor 2) on one 6-CPU
  // server ask for 8 CPUs between them: each is granted 3 every slot.
  const qos::CosCommitment all_cos2{0.95, 720.0};
  std::vector<DemandTrace> demands;
  std::vector<qos::Translation> translations;
  for (const char* name : {"a", "b"}) {
    demands.emplace_back(name, tiny(), std::vector<double>(tiny().size(), 2.0));
    translations.push_back(
        qos::translate(demands.back(), band(0.5, 0.66, 0.9), all_cos2));
  }
  const std::vector<sim::ServerSpec> pool{sim::ServerSpec{"s", 6}};
  SchedulePhase phase;
  phase.hosts = {0, 0};
  phase.failure_mode.assign(2, false);
  phase.down.assign(1, false);
  const ScheduleResult r =
      run_event_schedule(demands, translations, translations, pool,
                         std::span(&phase, 1), {}, Policy::kClairvoyant);
  for (const ScheduleAppOutcome& app : r.apps) {
    for (const double g : app.granted) EXPECT_DOUBLE_EQ(g, 3.0) << app.name;
    EXPECT_DOUBLE_EQ(app.unserved_demand, 0.0) << app.name;
  }
}

TEST(FailureDrill, ValidatesInputs) {
  Rig rig = make_rig();
  DrillConfig cfg;
  cfg.failure_slot = 100;  // beyond trace
  EXPECT_THROW(run_failure_drill(rig.demands, rig.normal, rig.failure,
                                 rig.normal_assignment,
                                 rig.failure_assignment, rig.pool, 0, cfg),
               InvalidArgument);
  cfg.failure_slot = 5;
  placement::Assignment bad = rig.failure_assignment;
  bad[0] = 0;  // still on the failed server
  EXPECT_THROW(run_failure_drill(rig.demands, rig.normal, rig.failure,
                                 rig.normal_assignment, bad, rig.pool, 0,
                                 cfg),
               InvalidArgument);
}

}  // namespace
}  // namespace ropus::wlm
