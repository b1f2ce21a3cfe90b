// Golden equivalence fixtures, asserted bit for bit:
//  * slo_golden.txt — the SLO arithmetic: `ComplianceReport` fields, sim
//    theta diagnostics, and watchdog verdicts over the 26 case-study
//    applications, captured before the arithmetic moved into the `slo`
//    kernel;
//  * grant_golden.txt — the two-priority grant rule as the pool loops apply
//    it: per-slot grants of a multi-phase wlm event schedule and of a
//    single-phase windowed-max(6) pool run, and the reply bytes of a serve
//    arbiter stream, captured before the rule moved into the kernel;
//  * admission_golden.txt — a serve daemon's admission replies: the request
//    script of the chaos drill's former delta-vs-batch admission campaign
//    (seed 2006) with the default daemon's reply bytes and summary,
//    captured while the stateless batch admission path still existed;
//  * faultsim_golden.txt — fault-injection campaigns: the JSON report of
//    small campaigns covering every telemetry fault kind and fallback,
//    every controller policy, surges, delayed spares and the local degrade
//    policy, plus one trial's per-app outcome each, captured while the
//    workload manager still replayed a schedule slot by slot;
//  * checkpoint_golden.txt — serve checkpoint files: the length and FNV-1a
//    digest of the checkpoint, and of the profile store beside it, written
//    after every state-changing request of a seeded serve script, captured
//    when the profiles moved out of the checkpoint into the store (v3).
// Every double is serialised with %.17g, which round-trips exactly, so a
// string compare IS a bit compare.
//
// Regenerate (only when an intentional numeric change lands) with
//   ROPUS_UPDATE_GOLDEN=1 ./tests/test_golden
// and review the fixture diff like code. The admission fixture keeps its
// request lines on regeneration; only replies and summary are rewritten.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "faultsim/campaign.h"
#include "obs/watchdog.h"
#include "placement/assignment.h"
#include "qos/allocation.h"
#include "qos/requirements.h"
#include "serve/arbiter.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "trace/calendar.h"
#include "trace/demand_trace.h"
#include "wlm/compliance.h"
#include "wlm/failure_drill.h"
#include "workload/fleet.h"

#ifndef ROPUS_GOLDEN_DIR
#error "ROPUS_GOLDEN_DIR must point at tests/golden"
#endif

namespace ropus {
namespace {

constexpr double kMinutesPerSample = 5.0;

qos::Requirement paper_requirement() {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  req.t_degr_minutes = 30.0;
  return req;
}

/// Formats a double so it round-trips exactly (17 significant digits map
/// distinct doubles to distinct strings).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Lines {
 public:
  void add(const std::string& key, const std::string& value) {
    lines_.push_back(key + "=" + value);
  }
  void add(const std::string& key, double value) { add(key, fmt(value)); }
  void add(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  }
  void add(const std::string& key, bool value) {
    add(key, std::string(value ? "1" : "0"));
  }
  const std::vector<std::string>& all() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

void add_report(Lines& out, const std::string& prefix,
                const wlm::ComplianceReport& r, const qos::Requirement& req) {
  out.add(prefix + ".intervals", std::uint64_t{r.intervals});
  out.add(prefix + ".idle", std::uint64_t{r.idle});
  out.add(prefix + ".acceptable", std::uint64_t{r.acceptable});
  out.add(prefix + ".degraded", std::uint64_t{r.degraded});
  out.add(prefix + ".violating", std::uint64_t{r.violating});
  out.add(prefix + ".degraded_telemetry", std::uint64_t{r.degraded_telemetry});
  out.add(prefix + ".violating_telemetry",
          std::uint64_t{r.violating_telemetry});
  out.add(prefix + ".longest_degraded_minutes", r.longest_degraded_minutes);
  out.add(prefix + ".degraded_fraction", r.degraded_fraction());
  out.add(prefix + ".satisfies", r.satisfies(wlm::band_of(req)));
}

/// The deterministic scenario: demand replayed against its own translated
/// allocation, granted in full and at 72% (the squeeze pushes a realistic
/// mix of slots into degraded and violating bands).
struct Scenario {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocations;
  qos::Requirement req = paper_requirement();
  qos::CosCommitment cos2{0.95, 60.0};
};

const Scenario& scenario() {
  static const Scenario s = [] {
    Scenario sc;
    sc.demands =
        workload::case_study_traces(trace::Calendar::standard(1), 2006);
    sc.allocations = qos::build_allocations(sc.demands, sc.req, sc.cos2);
    return sc;
  }();
  return s;
}

void compliance_lines(Lines& out) {
  const Scenario& s = scenario();
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const trace::DemandTrace& t = s.demands[a];
    const qos::AllocationTrace& alloc = s.allocations[a];
    const std::string app = "app" + std::to_string(a);

    std::vector<double> demand(t.values().begin(), t.values().end());
    std::vector<double> full(t.size()), squeezed(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      full[i] = alloc.cos1()[i] + alloc.cos2()[i];
      squeezed[i] = full[i] * 0.72;
    }
    const slo::Band band = wlm::band_of(s.req);
    add_report(out, app + ".full",
               slo::accumulate_bands(demand, full, band, kMinutesPerSample),
               s.req);
    add_report(out, app + ".squeezed",
               slo::accumulate_bands(demand, squeezed, band,
                                     kMinutesPerSample),
               s.req);

    // A mid-trace range and a periodic mask, as faultsim phases produce:
    // a masked-out slot (the other mode's) ends the degraded run, and
    // degradations on fallback slots are charged to telemetry, as the
    // event schedule judges them.
    const std::size_t lo = t.size() / 5;
    const std::size_t hi = (4 * t.size()) / 5;
    add_report(out, app + ".range",
               slo::accumulate_bands(std::span(demand).subspan(lo, hi - lo),
                                     std::span(squeezed).subspan(lo, hi - lo),
                                     band, kMinutesPerSample),
               s.req);
    const auto masked = [&](bool attributed) {
      slo::BandAccumulator acc(kMinutesPerSample);
      for (std::size_t i = 0; i < t.size(); ++i) {
        if ((i % 40) < 13) {
          acc.end_run();
          continue;
        }
        acc.observe(demand[i], squeezed[i], band, attributed && i % 7 == 0);
      }
      return acc.counts();
    };
    add_report(out, app + ".masked", masked(false), s.req);
    add_report(out, app + ".attributed", masked(true), s.req);
  }
}

void theta_lines(Lines& out) {
  const Scenario& s = scenario();
  struct Combo {
    std::size_t first, count;
    double capacity;
  };
  // Server-sized subsets at capacities that straddle the commitment: the
  // tightest keeps CoS1 feasible (theta_breakdown requires it) while
  // producing sub-1 thetas and real deferral traffic.
  const Combo combos[] = {{0, 8, 26.0}, {8, 12, 30.0}, {0, 26, 95.0}};
  for (std::size_t c = 0; c < std::size(combos); ++c) {
    const Combo& combo = combos[c];
    std::vector<const qos::AllocationTrace*> ptrs;
    for (std::size_t i = 0; i < combo.count; ++i) {
      ptrs.push_back(&s.allocations[combo.first + i]);
    }
    const sim::Aggregate agg =
        sim::aggregate_workloads(ptrs, s.demands[0].calendar());
    const std::string key = "combo" + std::to_string(c);
    out.add(key + ".peak_cos1", agg.peak_cos1);

    const sim::Evaluation ev = sim::evaluate(agg, combo.capacity, s.cos2);
    out.add(key + ".cos1_satisfied", ev.cos1_satisfied);
    out.add(key + ".theta", ev.theta);
    out.add(key + ".deadline_met", ev.deadline_met);
    out.add(key + ".max_backlog", ev.max_backlog);

    ASSERT_TRUE(ev.cos1_satisfied) << "combo " << c
                                   << ": raise the fixture capacity";
    const sim::ThetaBreakdown bd = theta_breakdown(agg, combo.capacity);
    out.add(key + ".bd.theta", bd.theta);
    out.add(key + ".bd.worst_week", bd.worst_week);
    out.add(key + ".bd.worst_slot", bd.worst_slot);
    for (std::size_t g = 0; g < bd.group_ratios.size(); ++g) {
      out.add(key + ".bd.group" + std::to_string(g), bd.group_ratios[g]);
    }

    const sim::RequiredCapacity rc =
        sim::required_capacity(agg, combo.capacity * 2.0, s.cos2);
    out.add(key + ".rc.fits", rc.fits);
    out.add(key + ".rc.capacity", rc.capacity);
    out.add(key + ".rc.theta",
            sim::evaluate(agg, rc.capacity, s.cos2).theta);
  }
}

void watchdog_lines(Lines& out) {
  const Scenario& s = scenario();
  obs::WatchdogConfig config;
  config.normal = obs::SloBand{0.66, 0.9, 97.0, 30.0};
  config.failure = obs::SloBand{0.66, 0.9, 97.0, 30.0};
  config.minutes_per_sample = kMinutesPerSample;
  config.slots_per_day = s.demands[0].calendar().slots_per_day();
  config.theta = s.cos2.theta;
  obs::Watchdog wd(config);

  // Every app streamed through one watchdog: squeezed grants, a periodic
  // failure-mode stretch, telemetry fallback slots, and an overcommitted
  // CoS1 stretch once a day.
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const trace::DemandTrace& t = s.demands[a];
    const qos::AllocationTrace& alloc = s.allocations[a];
    for (std::size_t i = 0; i < t.size(); ++i) {
      obs::SlotRecord r;
      r.slot = static_cast<std::uint32_t>(i);
      r.app = static_cast<std::uint16_t>(a);
      r.demand = t.values()[i];
      r.cos1 = alloc.cos1()[i];
      r.cos2 = alloc.cos2()[i];
      const double total = alloc.cos1()[i] + alloc.cos2()[i];
      const bool squeezed_slot = (i / 24) % 2 == (a % 2);
      r.granted = total * (squeezed_slot ? 0.72 : 1.0);
      r.satisfied2 = std::max(0.0, r.granted - r.cos1);
      if ((i % 60) < 9) r.flags |= obs::SlotRecord::kFailureMode;
      if (i % 11 == 0) r.flags |= obs::SlotRecord::kFallback;
      wd.observe(r);
    }
  }
  wd.finish();

  const obs::SloBand band = config.normal;
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const std::string app = "wd.app" + std::to_string(a);
    for (const bool failure : {false, true}) {
      const obs::BandReport* r =
          wd.report(static_cast<std::uint16_t>(a), failure);
      const std::string mode = failure ? ".failure" : ".normal";
      ASSERT_NE(r, nullptr) << app << mode;
      out.add(app + mode + ".intervals", std::uint64_t{r->intervals});
      out.add(app + mode + ".idle", std::uint64_t{r->idle});
      out.add(app + mode + ".acceptable", std::uint64_t{r->acceptable});
      out.add(app + mode + ".degraded", std::uint64_t{r->degraded});
      out.add(app + mode + ".violating", std::uint64_t{r->violating});
      out.add(app + mode + ".degraded_telemetry",
              std::uint64_t{r->degraded_telemetry});
      out.add(app + mode + ".violating_telemetry",
              std::uint64_t{r->violating_telemetry});
      out.add(app + mode + ".longest", r->longest_degraded_minutes);
      out.add(app + mode + ".ok", r->satisfies(band));
    }
  }
  out.add("wd.theta", wd.theta());
  out.add("wd.theta_exact", wd.theta_exact());
  out.add("wd.alerts", wd.alerts().size());
  std::size_t tdegr = 0, theta_alerts = 0, budget = 0, overcommit = 0;
  for (const obs::Alert& alert : wd.alerts()) {
    switch (alert.kind) {
      case obs::AlertKind::kTDegr: tdegr += 1; break;
      case obs::AlertKind::kTheta: theta_alerts += 1; break;
      case obs::AlertKind::kBandBudget: budget += 1; break;
      case obs::AlertKind::kCos1Overcommit: overcommit += 1; break;
    }
  }
  out.add("wd.alerts.tdegr", tdegr);
  out.add("wd.alerts.theta", theta_alerts);
  out.add("wd.alerts.band_budget", budget);
  out.add("wd.alerts.cos1_overcommit", overcommit);
}

std::vector<std::string> generate() {
  Lines out;
  compliance_lines(out);
  theta_lines(out);
  watchdog_lines(out);
  return out.all();
}

/// The grant scenario: the case-study fleet on an hourly calendar (168
/// slots keep the per-slot series reviewable) at theta = 0.6, where every
/// app carries a CoS1 share. The first placement puts three apps on a
/// 2-CPU server (CoS1 requests exceed capacity) and five on a 14-CPU server
/// (CoS1 fits, CoS2 is squeezed); the rest spread over four 16-way servers.
struct GrantScenario {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::Translation> normal;
  std::vector<qos::Translation> failure;
  std::vector<sim::ServerSpec> pool;
  placement::Assignment placed;
};

const GrantScenario& grant_scenario() {
  static const GrantScenario s = [] {
    GrantScenario sc;
    sc.demands = workload::case_study_traces(trace::Calendar(1, 60), 2006);
    const qos::CosCommitment cos2{0.6, 120.0};
    qos::Requirement normal = paper_requirement();
    normal.t_degr_minutes = 120.0;
    qos::Requirement failure = normal;
    failure.m_percent = 90.0;
    failure.t_degr_minutes.reset();
    for (const trace::DemandTrace& d : sc.demands) {
      sc.normal.push_back(qos::translate(d, normal, cos2));
      sc.failure.push_back(qos::translate(d, failure, cos2));
    }
    sc.pool = {{"cos1-overload", 2}, {"cos2-squeeze", 14}, {"s2", 16},
               {"s3", 16},           {"s4", 16},           {"s5", 16}};
    sc.placed = {2, 2, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2,
                 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5};
    return sc;
  }();
  return s;
}

void add_series(Lines& out, const std::string& key,
                std::span<const double> series, std::size_t per_line) {
  for (std::size_t begin = 0; begin < series.size(); begin += per_line) {
    std::string joined;
    for (std::size_t i = begin; i < begin + per_line; ++i) {
      if (i > begin) joined += ',';
      joined += fmt(series[i]);
    }
    out.add(key + ".d" + std::to_string(begin / per_line), joined);
  }
}

std::string app_key(std::size_t a) {
  return (a < 10 ? "app0" : "app") + std::to_string(a);
}

/// A three-phase windowed-max(3) schedule under lossy telemetry: server s5
/// fails at slot 50 (its apps move in failure mode with a 3-slot migration
/// outage; one finds no home) and returns at slot 110.
void schedule_lines(Lines& out) {
  const GrantScenario& s = grant_scenario();
  const std::size_t n = s.demands.size();
  const std::size_t slots = s.demands[0].size();

  wlm::SchedulePhase normal;
  normal.start_slot = 0;
  normal.hosts = s.placed;
  normal.failure_mode.assign(n, false);
  normal.down.assign(s.pool.size(), false);
  wlm::SchedulePhase failed = normal;
  failed.start_slot = 50;
  failed.down[5] = true;
  failed.hosts[22] = 4;
  failed.hosts[23] = 4;
  failed.hosts[24] = 2;
  failed.hosts[25] = wlm::kUnhosted;
  for (std::size_t a = 22; a < n; ++a) failed.failure_mode[a] = true;
  wlm::SchedulePhase repaired = normal;
  repaired.start_slot = 110;
  const std::vector<wlm::SchedulePhase> phases{normal, failed, repaired};
  const std::vector<wlm::OutageWindow> outages{
      {22, 50, 53}, {23, 50, 53}, {24, 50, 53}};

  std::vector<std::vector<wlm::Observation>> observations(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t i = 0; i < slots; ++i) {
      observations[a].push_back((i + 3 * a) % 17 == 0
                                    ? wlm::Observation::missing()
                                    : wlm::Observation::ok(s.demands[a][i]));
    }
  }
  wlm::ScheduleTelemetry telemetry;
  telemetry.observe = [&observations](std::size_t app, std::size_t first_slot,
                                      std::span<const double>,
                                      std::span<wlm::Observation> pulled) {
    for (std::size_t k = 0; k < pulled.size(); ++k) {
      pulled[k] = observations[app][first_slot + k];
    }
  };

  const wlm::ScheduleResult r = wlm::run_event_schedule(
      s.demands, s.normal, s.failure, s.pool, phases, outages,
      wlm::Policy::kWindowedMax, wlm::kDefaultHistoryWindow, telemetry);
  for (std::size_t a = 0; a < n; ++a) {
    const wlm::ScheduleAppOutcome& app = r.apps[a];
    const std::string key = "w3." + app_key(a);
    add_series(out, key + ".granted", app.granted, 24);
    out.add(key + ".unserved", app.unserved_demand);
    out.add(key + ".outage_unserved", app.outage_unserved);
    out.add(key + ".unhosted_slots", std::uint64_t{app.unhosted_slots});
    std::string fallback;
    for (const bool f : app.fallback_slots) fallback += f ? '1' : '0';
    out.add(key + ".fallback", fallback);
  }
  out.add("w3.unserved", r.unserved_demand);
  out.add("w3.outage_unserved", r.outage_unserved);
}

/// The first placement as one phase, windowed-max(6) controllers on true
/// demand: the shape of the workload-manager lag ablation.
void pool_run_lines(Lines& out) {
  const GrantScenario& s = grant_scenario();
  wlm::SchedulePhase phase;
  phase.hosts = s.placed;
  phase.failure_mode.assign(s.demands.size(), false);
  phase.down.assign(s.pool.size(), false);
  const wlm::ScheduleResult r = wlm::run_event_schedule(
      s.demands, s.normal, s.normal, s.pool, std::span(&phase, 1), {},
      wlm::Policy::kWindowedMax, 6);
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const std::string key = "w6." + app_key(a);
    add_series(out, key + ".granted", r.apps[a].granted, 24);
    out.add(key + ".unserved", r.apps[a].unserved_demand);
  }
  out.add("w6.unserved", r.unserved_demand);
}

std::string json_array(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(values[i]);
  }
  return out + "]";
}

/// A serve arbiter stream on a 3 x 8-CPU pool: eight admissions (two
/// refused), a departure and a later admission, 24 ticks with a 3-slot gap,
/// a missing and an unknown reading, and a demand surge that squeezes CoS2
/// into the deferral backlogs. Pins every reply line and the summary.
void arbiter_lines(Lines& out) {
  const GrantScenario& s = grant_scenario();
  serve::ServeConfig config;
  config.cos2 = qos::CosCommitment{0.6, 120.0};
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 3;
  config.server_cpus = 8.0;
  config.max_slot_gap = 24;
  serve::Arbiter arbiter(config);

  std::vector<std::string> replies;
  const auto drive = [&](const std::string& line) {
    for (std::string& reply : arbiter.handle(serve::parse_message(line))) {
      replies.push_back(std::move(reply));
    }
  };
  std::vector<std::size_t> admitted;  // apps the arbiter accepted
  const auto admit = [&](std::size_t a) {
    drive(R"({"type":"admit","app":")" + s.demands[a].name() +
          R"(","profile":)" + json_array(s.demands[a].values()) + "}");
    if (replies.back().find(R"("decision":"rejected")") == std::string::npos) {
      admitted.push_back(a);
    }
  };
  const std::size_t candidates[] = {2, 3, 4, 5, 6, 7, 8, 9};
  for (const std::size_t a : candidates) admit(a);

  std::size_t slot = 0;
  for (std::size_t tick = 0; tick < 24; ++tick, ++slot) {
    if (tick == 7) {
      const std::size_t leaving = admitted[1];
      drive(R"({"type":"depart","app":")" + s.demands[leaving].name() +
            "\"}");
      std::erase(admitted, leaving);
    }
    if (tick == 11) slot += 3;  // slots 11-13 arrive as filler verdicts
    if (tick == 15) admit(0);
    const double surge = tick >= 8 && tick < 18 ? 2.5 : 1.0;
    std::string demand = "{";
    for (const std::size_t a : admitted) {
      if (demand.size() > 1) demand += ',';
      demand += '"' + s.demands[a].name() + "\":";
      demand += tick == 4 && a == admitted.front()
                    ? "null"
                    : fmt(surge * s.demands[a][slot]);
    }
    if (tick == 9) demand += R"(,"ghost":1.5)";
    demand += '}';
    drive(R"({"type":"tick","slot":)" + std::to_string(slot) +
          R"(,"demand":)" + demand + "}");
  }

  for (std::size_t i = 0; i < replies.size(); ++i) {
    out.add("arbiter.reply" + std::to_string(i), replies[i]);
  }
  out.add("arbiter.summary", arbiter.summary());
}

std::vector<std::string> generate_grants() {
  Lines out;
  schedule_lines(out);
  pool_run_lines(out);
  arbiter_lines(out);
  return out.all();
}

/// A small campaign fleet: the case-study apps on `cal` under the grant
/// scenario's two QoS modes, first-fit-decreasing onto `pool`.
struct CampaignFleet {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::ApplicationQos> qos;
  qos::PoolCommitments commitments;
  std::vector<sim::ServerSpec> pool;
};

CampaignFleet campaign_fleet(const trace::Calendar& cal,
                             std::vector<sim::ServerSpec> pool) {
  CampaignFleet fleet;
  fleet.demands = workload::case_study_traces(cal, 2006);
  fleet.commitments.cos2 = qos::CosCommitment{0.6, 120.0};
  for (const trace::DemandTrace& d : fleet.demands) {
    qos::ApplicationQos q;
    q.app_name = d.name();
    q.normal = paper_requirement();
    q.normal.t_degr_minutes = 120.0;
    q.failure = q.normal;
    q.failure.m_percent = 90.0;
    q.failure.t_degr_minutes.reset();
    fleet.qos.push_back(std::move(q));
  }
  fleet.pool = std::move(pool);
  return fleet;
}

void add_health(std::string& line, const wlm::HealthReport& h) {
  for (const std::size_t v :
       {h.intervals, h.ok, h.stale, h.missing, h.corrupt,
        h.fallback_intervals, h.fallback_activations, h.longest_blackout}) {
    line += ',' + std::to_string(v);
  }
}

void add_counts(std::string& line, const wlm::ComplianceReport& r) {
  for (const std::size_t v :
       {r.intervals, r.idle, r.acceptable, r.degraded, r.violating,
        r.degraded_telemetry, r.violating_telemetry}) {
    line += ',' + std::to_string(v);
  }
  line += ',' + fmt(r.longest_degraded_minutes);
}

/// One campaign's JSON report, plus the per-app outcome of the trial its
/// seed draws directly (the report only carries distributions).
void campaign_lines(Lines& out, const std::string& name,
                    const faultsim::Campaign& campaign,
                    const faultsim::CampaignConfig& cfg) {
  const std::string key = "fs." + name;
  out.add(key + ".report", faultsim::format_report_json(campaign.run(cfg)));
  const faultsim::TrialOutcome trial = campaign.run_trial(cfg.seed, cfg);
  for (std::size_t a = 0; a < trial.apps.size(); ++a) {
    const faultsim::TrialAppOutcome& app = trial.apps[a];
    std::string line = fmt(app.unserved_demand) + ',' +
                       fmt(app.outage_unserved) + ',' +
                       std::to_string(app.unhosted_slots) + ',' +
                       std::to_string(app.migrations) + ',' +
                       (app.t_degr_breached ? '1' : '0');
    add_counts(line, app.normal_mode);
    add_counts(line, app.failure_mode);
    add_health(line, app.telemetry);
    out.add(key + ".trial." + app_key(a), line);
  }
}

/// Campaigns over the case-study fleet. Hourly (168 slots, not a multiple
/// of any power-of-two block) on a heterogeneous pool: one per telemetry
/// fault kind, each under a different fallback and controller policy, with
/// surges, delayed spares and the local degrade policy spread across them;
/// then the benchmark's shape (4 weeks of 5-minute slots, 2% drops, surges)
/// for a few trials.
std::vector<std::string> generate_campaigns() {
  Lines out;
  const CampaignFleet hourly = campaign_fleet(
      trace::Calendar(1, 60),
      {{"s0", 16}, {"s1", 16}, {"s2", 16}, {"s3", 16}, {"s4", 16}, {"s5", 16},
       {"s6", 16}, {"s7", 12}, {"s8", 12}, {"s9", 8}, {"s10", 6}});
  const faultsim::Campaign small(
      hourly.demands, hourly.qos, hourly.commitments, hourly.pool,
      faultsim::Campaign::plan_normal_assignment(
          hourly.demands, hourly.qos, hourly.commitments, hourly.pool));
  faultsim::CampaignConfig base;
  base.trials = 24;
  base.seed = 2006;
  base.reliability.mtbf_hours = 150.0;
  base.reliability.mttr_hours = 12.0;

  faultsim::CampaignConfig cfg = base;
  cfg.surge.arrivals_per_week = 2.0;
  cfg.replay.policy = wlm::Policy::kReactive;
  cfg.replay.telemetry.drop_rate = 0.08;
  cfg.replay.degraded.fallback = wlm::FallbackPolicy::kHoldLast;
  campaign_lines(out, "drop_hold_reactive", small, cfg);

  cfg = base;
  cfg.seed = 2007;
  cfg.replay.policy = wlm::Policy::kWindowedMax;
  cfg.replay.telemetry.stale_rate = 0.15;
  cfg.replay.telemetry.max_staleness = 5;
  cfg.replay.degraded.fallback = wlm::FallbackPolicy::kDecayToMax;
  cfg.replay.degraded.decay_intervals = 3;
  campaign_lines(out, "stale5_decay_windowed", small, cfg);

  cfg = base;
  cfg.seed = 2008;
  cfg.replay.telemetry.corrupt_rate = 0.06;
  cfg.replay.degraded.fallback = wlm::FallbackPolicy::kEntitlementFloor;
  cfg.replay.degraded.spike_threshold_factor = 3.0;
  cfg.replay.spare_servers = 1;
  cfg.replay.spare_cpus = 12;
  cfg.replay.spare_activation_slots = 3;
  campaign_lines(out, "corrupt_floor_spare", small, cfg);

  cfg = base;
  cfg.seed = 2009;
  cfg.surge.arrivals_per_week = 1.5;
  cfg.replay.policy = wlm::Policy::kReactive;
  cfg.replay.degrade_all_apps = false;
  cfg.replay.telemetry.noise_stddev = 0.3;
  cfg.replay.degraded.fallback = wlm::FallbackPolicy::kDecayToMax;
  campaign_lines(out, "noise_decay_local", small, cfg);

  cfg = base;
  cfg.seed = 2010;
  cfg.replay.policy = wlm::Policy::kWindowedMax;
  cfg.replay.telemetry.blackout_rate = 0.03;
  cfg.replay.telemetry.blackout_mean_intervals = 4.0;
  cfg.replay.migration_outage_slots = 2;
  cfg.replay.degraded.fallback = wlm::FallbackPolicy::kHoldLast;
  campaign_lines(out, "blackout_hold_windowed", small, cfg);

  cfg = base;
  cfg.seed = 2011;
  cfg.surge.arrivals_per_week = 2.0;
  cfg.replay.spare_servers = 2;
  cfg.replay.spare_activation_slots = 5;
  cfg.replay.degrade_all_apps = false;
  campaign_lines(out, "perfect_spares_local", small, cfg);

  const CampaignFleet weeks = campaign_fleet(trace::Calendar::standard(4),
                                             sim::homogeneous_pool(13, 16));
  const faultsim::Campaign large(
      weeks.demands, weeks.qos, weeks.commitments, weeks.pool,
      faultsim::Campaign::plan_normal_assignment(
          weeks.demands, weeks.qos, weeks.commitments, weeks.pool));
  cfg = faultsim::CampaignConfig{};
  cfg.trials = 3;
  cfg.seed = 2012;
  cfg.reliability.mtbf_hours = 200.0;
  cfg.reliability.mttr_hours = 24.0;
  cfg.surge.arrivals_per_week = 0.5;
  cfg.replay.telemetry.drop_rate = 0.02;
  campaign_lines(out, "four_weeks_drop", large, cfg);
  return out.all();
}

/// Compares `lines` against the fixture `name` under tests/golden, or
/// rewrites the fixture when ROPUS_UPDATE_GOLDEN=1.
void expect_matches_fixture(const std::string& name,
                            const std::vector<std::string>& lines) {
  const std::string path = std::string(ROPUS_GOLDEN_DIR) + "/" + name;
  if (const char* update = std::getenv("ROPUS_UPDATE_GOLDEN");
      update != nullptr && update[0] == '1') {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    for (const std::string& line : lines) file << line << "\n";
    GTEST_SKIP() << "fixture regenerated at " << path << " ("
                 << lines.size() << " lines) — review the diff";
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good())
      << "missing fixture " << path
      << " — run once with ROPUS_UPDATE_GOLDEN=1 and commit the file";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(file, line)) expected.push_back(line);

  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], expected[i]) << name << " line " << i + 1;
  }
}

/// Replays the admission fixture's request lines through a fresh
/// DaemonCore configured like a default `ropus_cli serve` (13 x 16-CPU
/// servers, theta 0.95, no persistence): ten admissions churned with
/// departures, evictions, re-admissions into the freed headroom and ticks.
std::vector<std::string> generate_admissions() {
  const std::string path =
      std::string(ROPUS_GOLDEN_DIR) + "/admission_golden.txt";
  std::vector<std::string> requests;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("request=", 0) == 0) requests.push_back(line.substr(8));
  }
  EXPECT_FALSE(requests.empty()) << "no request lines in " << path;

  serve::ServeConfig config;
  serve::DaemonCore core(config, serve::DaemonOptions{});
  Lines out;
  for (const std::string& request : requests) {
    out.add("request", request);
    for (const std::string& reply : core.process_line(request, false).replies) {
      out.add("reply", reply);
    }
  }
  out.add("summary", core.arbiter().summary());
  return out.all();
}

/// FNV-1a, 64-bit: the checkpoint fixture's digest, independent of the
/// CRC-32 that frames the file it digests.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A seeded serve script on a 4 x 8-CPU hourly pool, checkpointed after
/// every state-changing request: admissions with and without T_degr (one
/// identified, one with `-0` readings in its profile, one renegotiated,
/// one rejected), a CoS2 surge that backlogs deferred work and raises
/// watchdog alerts, a 3-slot gap, a departure, an eviction and a late
/// admission. Each line is the checkpoint file's length and digest, then
/// the profile store's.
std::vector<std::string> generate_checkpoints() {
  serve::ServeConfig config;
  config.cos2 = qos::CosCommitment{0.6, 120.0};
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 4;
  config.server_cpus = 8.0;
  config.max_slot_gap = 24;
  config.admission.renegotiate_tdegr = 120.0;
  serve::Arbiter arbiter(config);
  constexpr std::size_t kSlots = 7 * 24;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ropus_golden_checkpoint_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "serve.ckpt";

  Rng rng(2006);
  Lines out;
  std::uint64_t journaled = 0;
  std::vector<std::string> replies;
  bool saw_renegotiated = false, saw_tdegr_null = false, saw_id_cache = false;
  bool saw_backlog = false, saw_alert = false, saw_departure = false;
  const auto drive = [&](const std::string& line) {
    bool changed = false;
    for (std::string& reply :
         arbiter.handle(serve::parse_message(line), &changed)) {
      saw_renegotiated = saw_renegotiated ||
                         reply.find(R"("decision":"renegotiated")") !=
                             std::string::npos;
      saw_alert = saw_alert || reply.find(R"("alerts":[)") != std::string::npos;
      saw_departure = saw_departure || reply.find(R"("type":"departure")") !=
                                           std::string::npos;
      replies.push_back(std::move(reply));
    }
    if (!changed) return;
    journaled += 1;
    serve::write_checkpoint(path, arbiter, journaled);
    const auto read = [](const std::filesystem::path& file_path) {
      std::ifstream file(file_path, std::ios::binary);
      return std::string{std::istreambuf_iterator<char>(file), {}};
    };
    const std::string bytes = read(path);
    const std::string store = read(serve::ProfileStore::path_for(path));
    saw_tdegr_null =
        saw_tdegr_null || bytes.find(R"("tdegr":null)") != std::string::npos;
    saw_id_cache = saw_id_cache ||
                   bytes.find(R"("id_cache":[{)") != std::string::npos;
    saw_backlog = saw_backlog || arbiter.backlog_total() > 0.0;
    out.add("checkpoint" + std::to_string(journaled),
            std::to_string(bytes.size()) + "," + hex16(fnv1a64(bytes)) + "," +
                std::to_string(store.size()) + "," + hex16(fnv1a64(store)));
  };

  // Profiles: a level per app with seeded full-precision noise, or a flat
  // one with isolated peaks; `zeros` writes every fifth slot as `-0`.
  std::map<std::string, std::vector<double>> profiles;
  std::vector<std::string> hosted;
  const auto noisy = [&rng](double level) {
    std::vector<double> values;
    for (std::size_t i = 0; i < kSlots; ++i) {
      values.push_back(level * rng.uniform(0.6, 1.4));
    }
    return values;
  };
  const auto admit = [&](const std::string& app, std::vector<double> values,
                         const std::string& extra, bool zeros = false) {
    std::string profile;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const bool zero = zeros && i % 5 == 0;
      if (zero) values[i] = 0.0;
      if (i > 0) profile += ',';
      profile += zero ? "-0" : fmt(values[i]);
    }
    profiles[app] = std::move(values);
    drive(R"({"type":"admit","app":")" + app + R"(","profile":[)" + profile +
          "]" + extra + "}");
    if (replies.back().find(R"("decision":"rejected")") == std::string::npos) {
      hosted.push_back(app);
    }
  };
  std::vector<double> peaky(kSlots, 1.0);
  for (std::size_t i = 30; i < kSlots; i += 23) peaky[i] = 5.5;
  admit("web", noisy(1.5), R"(,"tdegr":120)");
  admit("db", noisy(2.0), R"(,"id":"admit-db","revenue":1.75)");
  admit("peaky", peaky, R"(,"m":100)");  // renegotiated to M=90
  admit("batch", noisy(1.0), R"(,"m":95,"tdegr":240)", true);
  admit("cache", noisy(1.6), "");
  admit("api", noisy(1.2), R"(,"m":99,"tdegr":60)");
  admit("huge", noisy(40.0), "");  // fits no server: rejected, not journaled

  std::size_t slot = 0;
  for (std::size_t tick = 0; tick < 30; ++tick, ++slot) {
    if (tick == 9) {
      drive(R"({"type":"depart","app":"web","id":"bye-web"})");
      std::erase(hosted, "web");
    }
    if (tick == 14) slot += 3;  // slots 14-16 arrive as filler verdicts
    if (tick == 20) {
      drive(R"({"type":"evict","app":"cache"})");
      std::erase(hosted, "cache");
    }
    if (tick == 24) admit("late", noisy(1.2), R"(,"tdegr":180)");
    const double surge = tick >= 6 && tick < 18 ? 2.2 : 1.0;
    std::string demand = "{";
    for (const std::string& app : hosted) {
      if (demand.size() > 1) demand += ',';
      demand += '"' + app + "\":";
      demand += tick == 5 && app == "db"
                    ? "null"
                    : fmt(surge * profiles[app][slot % kSlots]);
    }
    demand += '}';
    drive(R"({"type":"tick","slot":)" + std::to_string(slot) +
          R"(,"demand":)" + demand + "}");
  }
  std::filesystem::remove_all(dir);

  EXPECT_TRUE(saw_renegotiated) << "no renegotiated admission";
  EXPECT_TRUE(saw_tdegr_null) << "no app without T_degr";
  EXPECT_TRUE(saw_id_cache) << "no identified request";
  EXPECT_TRUE(saw_backlog) << "no CoS2 backlog";
  EXPECT_TRUE(saw_alert) << "no watchdog alert";
  EXPECT_TRUE(saw_departure) << "no departure";
  return out.all();
}

TEST(GoldenEquivalence, SloArithmeticMatchesPreRefactorFixture) {
  expect_matches_fixture("slo_golden.txt", generate());
}

TEST(GoldenEquivalence, GrantRuleMatchesPreRefactorFixture) {
  expect_matches_fixture("grant_golden.txt", generate_grants());
}

TEST(GoldenEquivalence, AdmissionRepliesMatchPreRefactorFixture) {
  expect_matches_fixture("admission_golden.txt", generate_admissions());
}

TEST(GoldenEquivalence, FaultsimReportsMatchPreRefactorFixture) {
  expect_matches_fixture("faultsim_golden.txt", generate_campaigns());
}

TEST(GoldenEquivalence, CheckpointBytesMatchPreRefactorFixture) {
  expect_matches_fixture("checkpoint_golden.txt", generate_checkpoints());
}

}  // namespace
}  // namespace ropus
