#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "qos/requirements.h"
#include "qos/translation.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "trace/calendar.h"
#include "wlm/compliance.h"
#include "wlm/failure_drill.h"
#include "wlm/telemetry.h"

namespace ropus::obs {
namespace {

namespace fs = std::filesystem;

/// The band used throughout: the paper's default U_high/U_degr with a 3%
/// M_degr budget and a 30-minute T_degr (6 slots at 5 min/sample).
SloBand paper_band() { return SloBand{0.66, 0.9, 97.0, 30.0}; }

qos::Requirement paper_requirement() {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  req.t_degr_minutes = 30.0;
  return req;
}

WatchdogConfig paper_config() {
  WatchdogConfig config;
  config.normal = paper_band();
  config.failure = paper_band();
  config.minutes_per_sample = 5.0;
  config.slots_per_day = 288;
  return config;
}

/// A record whose granted equals its CoS1 request, so only the band
/// classification (demand vs granted) is exercised — never overcommit or
/// theta.
SlotRecord band_record(std::uint32_t slot, double demand, double granted,
                       std::uint8_t flags = 0, std::uint16_t section = 0) {
  SlotRecord r;
  r.slot = slot;
  r.app = 0;
  r.section = section;
  r.demand = demand;
  r.cos1 = granted;
  r.granted = granted;
  r.flags = flags;
  return r;
}

void expect_reports_equal(const BandReport& streaming,
                          const wlm::ComplianceReport& batch) {
  EXPECT_EQ(streaming.intervals, batch.intervals);
  EXPECT_EQ(streaming.idle, batch.idle);
  EXPECT_EQ(streaming.acceptable, batch.acceptable);
  EXPECT_EQ(streaming.degraded, batch.degraded);
  EXPECT_EQ(streaming.violating, batch.violating);
  EXPECT_EQ(streaming.degraded_telemetry, batch.degraded_telemetry);
  EXPECT_EQ(streaming.violating_telemetry, batch.violating_telemetry);
  // Bit-for-bit, not nearly-equal: both sides multiply an integer count by
  // the same minutes_per_sample.
  EXPECT_EQ(streaming.longest_degraded_minutes,
            batch.longest_degraded_minutes);
  EXPECT_EQ(streaming.degraded_fraction(), batch.degraded_fraction());
}

/// A mixed series covering every classification: idle, acceptable, degraded,
/// violating, and demand with a zero grant (infinite utilization).
struct Series {
  std::vector<double> demand;
  std::vector<double> granted;
};

Series mixed_series(std::size_t n, std::uint64_t seed) {
  Series s;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = rng.uniform(0.0, 1.0);
    if (p < 0.10) {
      s.demand.push_back(0.0);  // idle
      s.granted.push_back(1.0);
    } else if (p < 0.13) {
      s.demand.push_back(0.5);  // demand with no grant: violating
      s.granted.push_back(0.0);
    } else {
      s.demand.push_back(rng.uniform(0.2, 1.3));  // spans all three bands
      s.granted.push_back(1.0);
    }
  }
  return s;
}

TEST(Watchdog, StreamingMatchesBatchRangeCheck) {
  const Series s = mixed_series(1500, 41);
  Watchdog wd(paper_config());
  for (std::size_t i = 0; i < s.demand.size(); ++i) {
    wd.observe(
        band_record(static_cast<std::uint32_t>(i), s.demand[i], s.granted[i]));
  }
  wd.finish();

  const wlm::ComplianceReport batch = slo::accumulate_bands(
      s.demand, s.granted, wlm::band_of(paper_requirement()), 5.0);
  const BandReport* streaming = wd.report(0, false);
  ASSERT_NE(streaming, nullptr);
  expect_reports_equal(*streaming, batch);
  EXPECT_EQ(wd.report(0, true), nullptr);  // no failure-mode slots streamed
  EXPECT_EQ(streaming->satisfies(paper_band()),
            batch.satisfies(wlm::band_of(paper_requirement()), 0.0));
}

/// A recorded wlm event schedule whose phases alternate the apps' modes,
/// the faultsim pattern: failure mode for 13 of every 40 slots, so each
/// mode's slots form a non-contiguous subset and a slot of the other mode
/// must end a mode's degraded run. Three apps with noisy demand share a
/// server too small for their peaks, so every band class occurs; with
/// `faulted`, each app's readings drop and go stale, so some slots are
/// served from the fallback.
struct RecordedSchedule {
  wlm::ScheduleResult result;
  Recording recording;
  WatchdogConfig config;
};

RecordedSchedule record_alternating_schedule(bool faulted) {
  const trace::Calendar cal = trace::Calendar::standard(1);
  qos::Requirement failure_req = paper_requirement();
  failure_req.u_high = 0.8;
  failure_req.u_degr = 0.95;
  failure_req.m_percent = 90.0;
  failure_req.t_degr_minutes = 60.0;
  const qos::CosCommitment cos2{0.95, 60.0};
  Rng rng(45);
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::Translation> normal;
  std::vector<qos::Translation> failure;
  for (std::size_t a = 0; a < 3; ++a) {
    std::vector<double> v(cal.size());
    for (double& x : v) x = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.2, 3.0);
    demands.emplace_back("app-" + std::to_string(a), cal, std::move(v));
    normal.push_back(qos::translate(demands.back(), paper_requirement(), cos2));
    failure.push_back(qos::translate(demands.back(), failure_req, cos2));
  }
  const std::vector<sim::ServerSpec> pool{sim::ServerSpec{"s", 7}};
  std::vector<wlm::SchedulePhase> phases;
  for (std::size_t start = 0; start < cal.size(); start += 40) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{13}}) {
      wlm::SchedulePhase phase;
      phase.start_slot = start + offset;
      phase.hosts.assign(demands.size(), 0);
      phase.failure_mode.assign(demands.size(), offset == 0);
      phase.down.assign(pool.size(), false);
      if (phase.start_slot < cal.size()) phases.push_back(std::move(phase));
    }
  }
  wlm::TelemetryFaultModel model;
  model.drop_rate = 0.2;
  model.stale_rate = 0.1;
  std::vector<wlm::TelemetryChannel> channels;
  wlm::ScheduleTelemetry telemetry;
  if (faulted) {
    for (std::uint64_t a = 0; a < demands.size(); ++a) {
      channels.emplace_back(model, 46 + a);
    }
    telemetry.observe = [&channels](std::size_t app, std::size_t,
                                    std::span<const double> true_demand,
                                    std::span<wlm::Observation> out) {
      channels[app].observe_block(true_demand, out);
    };
  }

  const fs::path path =
      fs::temp_directory_path() /
      ("ropus_watchdog_schedule_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       ".bin");
  RecorderConfig rec_config;
  rec_config.path = path;
  rec_config.ring_records = 0;
  Recorder recorder(rec_config);
  Recorder::set_active(&recorder);
  RecordedSchedule out;
  out.result = wlm::run_event_schedule(demands, normal, failure, pool, phases,
                                       {}, wlm::Policy::kReactive,
                                       wlm::kDefaultHistoryWindow, telemetry);
  Recorder::set_active(nullptr);
  recorder.finish();
  out.recording = read_recording(path);
  fs::remove(path);

  out.config = paper_config();
  out.config.normal = wlm::band_of(paper_requirement());
  out.config.failure = wlm::band_of(failure_req);
  return out;
}

/// Streams a recorded schedule through the watchdog and checks each app's
/// per-mode reports against the counts the schedule judged, as `ropus_cli
/// report` claims for a stride-1 recording; returns the counts summed over
/// apps and modes.
wlm::ComplianceReport expect_watchdog_matches_schedule(
    const RecordedSchedule& s) {
  Watchdog wd(s.config);
  for (const SlotRecord& r : s.recording.records) wd.observe(r);
  wd.finish();
  wlm::ComplianceReport total;
  for (const wlm::ScheduleAppOutcome& app : s.result.apps) {
    SCOPED_TRACE(app.name);
    const auto it =
        std::find(s.recording.apps.begin(), s.recording.apps.end(), app.name);
    EXPECT_NE(it, s.recording.apps.end());
    if (it == s.recording.apps.end()) continue;
    const auto id = static_cast<std::uint16_t>(it - s.recording.apps.begin());
    const BandReport* normal = wd.report(id, false);
    const BandReport* failure = wd.report(id, true);
    EXPECT_NE(normal, nullptr);
    EXPECT_NE(failure, nullptr);
    if (normal == nullptr || failure == nullptr) continue;
    expect_reports_equal(*normal, app.normal_mode);
    expect_reports_equal(*failure, app.failure_mode);
    for (const wlm::ComplianceReport* r :
         {&app.normal_mode, &app.failure_mode}) {
      total.degraded += r->degraded;
      total.violating += r->violating;
      total.degraded_telemetry += r->degraded_telemetry;
      total.violating_telemetry += r->violating_telemetry;
    }
  }
  return total;
}

TEST(Watchdog, StreamingMatchesBatchMaskedByMode) {
  const RecordedSchedule s = record_alternating_schedule(false);
  const wlm::ComplianceReport total = expect_watchdog_matches_schedule(s);
  EXPECT_GT(total.degraded, 0u);
  EXPECT_GT(total.violating, 0u);
  EXPECT_EQ(total.degraded_telemetry + total.violating_telemetry, 0u);
}

TEST(Watchdog, StreamingMatchesBatchTelemetryAttribution) {
  const RecordedSchedule s = record_alternating_schedule(true);
  const wlm::ComplianceReport total = expect_watchdog_matches_schedule(s);
  EXPECT_GT(total.degraded_telemetry + total.violating_telemetry, 0u);
  EXPECT_LT(total.degraded_telemetry + total.violating_telemetry,
            total.degraded + total.violating);
}

TEST(Watchdog, ThetaMatchesSimEvaluateBitForBit) {
  // Run the real simulator with the flight recorder active, read the
  // recording back, and replay it through the watchdog: the streaming theta
  // must equal sim::evaluate's return value exactly.
  const trace::Calendar cal = trace::Calendar::standard(2);
  sim::Aggregate agg;
  agg.calendar = cal;
  agg.workloads = 1;
  Rng rng(44);
  for (std::size_t i = 0; i < cal.size(); ++i) {
    agg.cos1.push_back(rng.uniform(0.0, 4.0));
    agg.cos2.push_back(rng.uniform(0.0, 8.0));
  }

  const fs::path path =
      fs::temp_directory_path() /
      ("ropus_watchdog_theta_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".bin");
  RecorderConfig rec_config;
  rec_config.path = path;
  rec_config.ring_records = 0;
  Recorder recorder(rec_config);
  Recorder::set_active(&recorder);
  const sim::Evaluation ev =
      sim::evaluate(agg, 8.0, qos::CosCommitment{0.95, 60.0});
  Recorder::set_active(nullptr);
  recorder.finish();

  const Recording recording = read_recording(path);
  fs::remove(path);
  ASSERT_EQ(recording.records.size(), cal.size());

  WatchdogConfig config = paper_config();
  config.theta = 0.95;
  config.slots_per_day = cal.slots_per_day();
  Watchdog wd(config);
  for (const SlotRecord& r : recording.records) wd.observe(r);
  wd.finish();

  EXPECT_TRUE(wd.theta_exact());
  EXPECT_LT(ev.theta, 1.0);  // capacity 8 against cos1+cos2 up to 12: misses
  EXPECT_EQ(wd.theta(), ev.theta);  // bit for bit, not nearly-equal

  const auto trajectory = wd.theta_trajectory();
  ASSERT_EQ(trajectory.size(), 1u);
  EXPECT_EQ(trajectory[0].theta, ev.theta);
  // The min fell below the 0.95 target, so the crossing must have alerted.
  ASSERT_FALSE(wd.alerts().empty());
  EXPECT_EQ(wd.alerts()[0].kind, AlertKind::kTheta);
}

TEST(Watchdog, TDegrBreachAtTraceStart) {
  WatchdogConfig config = paper_config();
  Watchdog wd(config);
  // Degraded from the very first slot: 8 slots of U = 0.8 is 40 minutes,
  // breaching T_degr = 30 at the 7th slot.
  for (std::uint32_t i = 0; i < 8; ++i) {
    wd.observe(band_record(i, 0.8, 1.0));
  }
  wd.finish();
  ASSERT_EQ(wd.alerts().size(), 1u);
  const Alert& alert = wd.alerts()[0];
  EXPECT_EQ(alert.kind, AlertKind::kTDegr);
  EXPECT_EQ(alert.severity, AlertSeverity::kCritical);
  EXPECT_EQ(alert.first_slot, 0u);
  EXPECT_EQ(alert.duration_slots, 8u);  // grew in place as the run extended
  EXPECT_DOUBLE_EQ(alert.value, 40.0);
  EXPECT_DOUBLE_EQ(alert.threshold, 30.0);
}

TEST(Watchdog, TDegrBreachSpanningEndOfTrace) {
  Watchdog wd(paper_config());
  for (std::uint32_t i = 0; i < 5; ++i) wd.observe(band_record(i, 0.5, 1.0));
  for (std::uint32_t i = 5; i < 12; ++i) wd.observe(band_record(i, 0.8, 1.0));
  wd.finish();  // the run is still open here; the alert must survive
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].kind, AlertKind::kTDegr);
  EXPECT_EQ(wd.alerts()[0].first_slot, 5u);
  EXPECT_EQ(wd.alerts()[0].duration_slots, 7u);
  EXPECT_DOUBLE_EQ(wd.alerts()[0].value, 35.0);
}

TEST(Watchdog, TDegrExactlyAtBoundDoesNotAlert) {
  Watchdog wd(paper_config());
  // Two 6-slot degraded runs (exactly 30 minutes each) separated by an
  // acceptable slot: the bound is "more than T_degr", so neither alerts.
  std::uint32_t slot = 0;
  for (int run = 0; run < 2; ++run) {
    for (int i = 0; i < 6; ++i) wd.observe(band_record(slot++, 0.8, 1.0));
    wd.observe(band_record(slot++, 0.5, 1.0));
  }
  wd.finish();
  EXPECT_TRUE(wd.alerts().empty());
  const BandReport* report = wd.report(0, false);
  ASSERT_NE(report, nullptr);
  EXPECT_DOUBLE_EQ(report->longest_degraded_minutes, 30.0);
}

TEST(Watchdog, SectionChangeResetsDegradedRuns) {
  Watchdog wd(paper_config());
  // 4 + 4 degraded slots that would breach T_degr as one run, split across
  // a section boundary (a new faultsim trial): no alert may fire.
  for (std::uint32_t i = 0; i < 4; ++i) {
    wd.observe(band_record(i, 0.8, 1.0, 0, /*section=*/0));
  }
  for (std::uint32_t i = 4; i < 8; ++i) {
    wd.observe(band_record(i, 0.8, 1.0, 0, /*section=*/1));
  }
  wd.finish();
  EXPECT_TRUE(wd.alerts().empty());
  const BandReport* report = wd.report(0, false);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->degraded, 8u);  // counts accumulate across sections
  EXPECT_DOUBLE_EQ(report->longest_degraded_minutes, 20.0);
}

TEST(Watchdog, BandBudgetAlertsOnceAfterWarmup) {
  WatchdogConfig config = paper_config();
  config.band_warmup_slots = 10;
  Watchdog wd(config);
  for (std::uint32_t i = 0; i < 9; ++i) wd.observe(band_record(i, 0.5, 1.0));
  // The 10th active slot is degraded: fraction 10% > the 3% M_degr budget.
  for (std::uint32_t i = 9; i < 14; ++i) wd.observe(band_record(i, 0.8, 1.0));
  wd.finish();
  std::size_t band_alerts = 0;
  for (const Alert& alert : wd.alerts()) {
    if (alert.kind != AlertKind::kBandBudget) continue;
    band_alerts += 1;
    EXPECT_EQ(alert.severity, AlertSeverity::kWarning);
    EXPECT_EQ(alert.first_slot, 9u);
    EXPECT_DOUBLE_EQ(alert.value, 10.0);
    EXPECT_DOUBLE_EQ(alert.threshold, 3.0);
  }
  EXPECT_EQ(band_alerts, 1u);  // latched: later worse fractions don't re-fire
}

TEST(Watchdog, Cos1OvercommitAlertsPerContiguousRun) {
  Watchdog wd(paper_config());
  const auto overcommit = [](std::uint32_t slot, double ratio,
                             std::uint8_t flags = 0) {
    SlotRecord r;
    r.slot = slot;
    r.app = 0;
    r.demand = 0.5;
    r.cos1 = 2.0;
    r.granted = 2.0 * ratio;
    r.flags = flags;
    return r;
  };
  wd.observe(overcommit(0, 0.8));
  wd.observe(overcommit(1, 0.75));
  wd.observe(overcommit(2, 0.9));
  wd.observe(band_record(3, 0.5, 2.0));  // fully granted: run ends
  wd.observe(overcommit(4, 0.6));
  // Unhosted and outage slots are unserved demand, not overcommit.
  wd.observe(overcommit(5, 0.0, SlotRecord::kUnhosted));
  wd.finish();

  std::vector<const Alert*> alerts;
  for (const Alert& alert : wd.alerts()) {
    if (alert.kind == AlertKind::kCos1Overcommit) alerts.push_back(&alert);
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0]->first_slot, 0u);
  EXPECT_EQ(alerts[0]->duration_slots, 3u);
  EXPECT_DOUBLE_EQ(alerts[0]->value, 0.75);  // the worst ratio of the run
  EXPECT_EQ(alerts[0]->severity, AlertSeverity::kCritical);
  EXPECT_EQ(alerts[1]->first_slot, 4u);
  EXPECT_EQ(alerts[1]->duration_slots, 1u);
}

TEST(Watchdog, PoolRecordsFeedOnlyTheta) {
  Watchdog wd(paper_config());
  SlotRecord pool;
  pool.app = kPoolApp;
  pool.demand = 10.0;  // would be wildly violating if judged as an app
  pool.cos1 = 4.0;
  pool.cos2 = 1.0;
  pool.granted = 4.4;
  pool.satisfied2 = 0.4;
  wd.observe(pool);
  wd.finish();

  EXPECT_EQ(wd.report(kPoolApp, false), nullptr);  // no band report
  EXPECT_TRUE(wd.theta_exact());
  EXPECT_DOUBLE_EQ(wd.theta(), 0.4);
  // The 1.0 -> 0.4 crossing below the 0.95 target alerts exactly once.
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].kind, AlertKind::kTheta);
  EXPECT_EQ(wd.alerts()[0].app, kPoolApp);
}

TEST(Watchdog, PoolThetaPreferredOverAppEstimates) {
  Watchdog wd(paper_config());
  SlotRecord app;
  app.app = 0;
  app.demand = 0.5;
  app.cos1 = 1.0;
  app.cos2 = 1.0;
  app.granted = 2.0;
  app.satisfied2 = 1.0;  // per-app estimate says theta 1.0
  wd.observe(app);
  EXPECT_FALSE(wd.theta_exact());
  EXPECT_DOUBLE_EQ(wd.theta(), 1.0);

  SlotRecord pool;
  pool.app = kPoolApp;
  pool.cos2 = 1.0;
  pool.satisfied2 = 0.5;  // the exact pool sums say theta 0.5
  wd.observe(pool);
  wd.finish();
  EXPECT_TRUE(wd.theta_exact());
  EXPECT_DOUBLE_EQ(wd.theta(), 0.5);
}

TEST(Watchdog, AlertOverflowIsCountedAndRateLimitIsAccounted) {
  Counter& kind_counter = counter("watchdog.alerts.cos1_overcommit");
  Counter& suppressed = counter("watchdog.alerts_suppressed");
  const std::uint64_t kind_before = kind_counter.value();
  const std::uint64_t suppressed_before = suppressed.value();

  Watchdog wd(paper_config());
  // 26 more isolated overcommit breaches than the watchdog stores (a
  // fully-granted slot between each, so no run merging): each one alerts,
  // and the last 26 alerts are counted, not stored.
  constexpr std::size_t kBreaches = Watchdog::kMaxAlerts + 26;
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < kBreaches; ++i) {
    SlotRecord r;
    r.slot = slot++;
    r.demand = 0.5;
    r.cos1 = 2.0;
    r.granted = 1.0;
    wd.observe(r);
    wd.observe(band_record(slot++, 0.5, 2.0));
  }
  wd.finish();

  EXPECT_EQ(wd.alerts().size(), Watchdog::kMaxAlerts);
  EXPECT_EQ(wd.alerts_dropped(), 26u);
  // Every emission reaches the registry even when the alert list is full...
  EXPECT_EQ(kind_counter.value() - kind_before, kBreaches);
  // ...and the log rate limiter (burst 5, then 1-in-1000 sampling) accounts
  // for every line it declines. Other tests share the process-wide limiter,
  // so only a lower bound is exact here: it lets at most 5 + ceil(kBreaches
  // / 1000) = 10 of the lines through.
  EXPECT_GE(suppressed.value() - suppressed_before, kBreaches - 10);
}

}  // namespace
}  // namespace ropus::obs
