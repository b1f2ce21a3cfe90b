// Differential test for run_event_schedule's blocked replay. The slot-by-
// slot loop it replaced is kept below as the oracle; seeded random
// schedules (1-40 apps on heterogeneous pools, calendars whose length is
// and is not a multiple of the block, phases and outages straddling block
// edges, every policy and telemetry source, the flight recorder on and off)
// must replay bit for bit the same through both, per-mode band counts
// included. Also pins the telemetry pull contract and the channel's
// stale-value ring.
#include "wlm/failure_drill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/recorder.h"
#include "slo/kernel.h"
#include "wlm/compliance.h"

namespace ropus::wlm {
namespace {

namespace fs = std::filesystem;
using trace::Calendar;
using trace::DemandTrace;

/// The slot-major replay: every slot steps all apps, sums their requests
/// per host, grants every server, then hands each app its grant and judges
/// it in the mode the app runs, ending the other mode's degraded run at
/// each mode switch. Telemetry arrives as streams sampled up front
/// (`observations`, one per app; empty for perfect telemetry). Inputs are
/// assumed valid.
ScheduleResult slot_major_schedule(
    std::span<const DemandTrace> demands,
    std::span<const qos::Translation> normal,
    std::span<const qos::Translation> failure,
    std::span<const sim::ServerSpec> pool,
    std::span<const SchedulePhase> phases,
    std::span<const OutageWindow> outages, Policy policy,
    std::size_t history_window,
    const std::vector<std::vector<Observation>>& observations,
    const DegradedModeConfig& degraded) {
  const std::size_t n = demands.size();
  const Calendar& cal = demands.front().calendar();
  std::vector<std::vector<char>> in_outage(n,
                                           std::vector<char>(cal.size(), 0));
  for (const OutageWindow& w : outages) {
    const std::size_t end = std::min(w.end, cal.size());
    for (std::size_t i = w.begin; i < end; ++i) in_outage[w.app][i] = 1;
  }
  const bool faulted = !observations.empty();

  std::vector<Controller> normal_ctl;
  std::vector<Controller> failure_ctl;
  for (std::size_t a = 0; a < n; ++a) {
    normal_ctl.emplace_back(normal[a], policy, history_window, degraded);
    failure_ctl.emplace_back(failure[a], policy, history_window, degraded);
  }

  // judges[a][0] judges app a's normal-mode slots, [1] its failure-mode
  // ones.
  const auto minutes = static_cast<double>(cal.minutes_per_sample());
  std::vector<std::vector<slo::BandAccumulator>> judges(
      n, std::vector<slo::BandAccumulator>(2, slo::BandAccumulator(minutes)));

  ScheduleResult result;
  result.apps.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    result.apps[a].name = demands[a].name();
    result.apps[a].granted.assign(cal.size(), 0.0);
    if (faulted) result.apps[a].fallback_slots.assign(cal.size(), false);
  }

  obs::Recorder* const rec = obs::Recorder::active();
  std::vector<std::uint16_t> rec_app;
  if (rec != nullptr) {
    rec->set_calendar(static_cast<double>(cal.minutes_per_sample()),
                      cal.slots_per_day());
    for (std::size_t a = 0; a < n; ++a) {
      rec_app.push_back(rec->app_id(demands[a].name()));
    }
  }

  std::vector<AllocationRequest> requests(n);
  std::vector<AllocationRequest> requested(pool.size());
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

    std::fill(requested.begin(), requested.end(), AllocationRequest{});
    for (std::size_t a = 0; a < n; ++a) {
      if (in_outage[a][i] || phase.hosts[a] == kUnhosted) {
        requests[a] = AllocationRequest{};
        continue;
      }
      Controller& ctl =
          phase.failure_mode[a] ? failure_ctl[a] : normal_ctl[a];
      if (faulted) {
        requests[a] = ctl.observe(observations[a][i]);
        result.apps[a].fallback_slots[i] = ctl.in_fallback();
      } else {
        requests[a] = ctl.observe(Observation::ok(demands[a][i]));
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
      const bool failure_mode = phase.failure_mode[a];
      const slo::Band band = band_of(failure_mode ? failure[a].requirement
                                                  : normal[a].requirement);
      const bool switched = i > 0 && phase.start_slot == i &&
                            phases[phase_idx - 1].failure_mode[a] !=
                                failure_mode;
      if (switched) judges[a][failure_mode ? 0 : 1].end_run();
      judges[a][failure_mode ? 1 : 0].observe(
          d, app.granted[i], band,
          faulted && app.fallback_slots[i] != 0);
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
        record.granted = result.apps[a].granted[i];
        record.satisfied2 = std::min(
            requests[a].cos2, std::max(0.0, record.granted - requests[a].cos1));
        if (faulted) {
          record.telemetry = static_cast<std::uint8_t>(
              static_cast<int>(observations[a][i].kind) + 1);
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
    result.apps[a].normal_mode = judges[a][0].counts();
    result.apps[a].failure_mode = judges[a][1].counts();
    result.unserved_demand += result.apps[a].unserved_demand;
    result.outage_unserved += result.apps[a].outage_unserved;
  }
  return result;
}

enum class Source { kPerfect, kChannels, kStreams };

/// One random schedule and everything needed to replay it twice.
struct Scenario {
  std::vector<DemandTrace> demands;
  std::vector<qos::Translation> normal;
  std::vector<qos::Translation> failure;
  std::vector<sim::ServerSpec> pool;
  std::vector<SchedulePhase> phases;
  std::vector<OutageWindow> outages;
  Policy policy = Policy::kClairvoyant;
  std::size_t window = kDefaultHistoryWindow;
  DegradedModeConfig degraded;
  Source source = Source::kPerfect;
  TelemetryFaultModel model;         // kChannels
  std::uint64_t channel_seed = 0;    // kChannels
  std::vector<std::vector<Observation>> streams;  // kStreams
  std::size_t record_stride = 0;     // 0 = no recorder
};

qos::Translation random_translation(Rng& rng, double peak,
                                    double u_high = 0.66,
                                    double u_degr = 0.9) {
  qos::Translation tr;
  tr.requirement.u_low = rng.uniform(0.3, 0.6);
  tr.requirement.u_high = u_high;
  tr.requirement.u_degr = u_degr;
  tr.requirement.m_percent = 97.0;
  tr.theta = rng.uniform(0.3, 1.0);
  tr.breakpoint_p = qos::breakpoint(tr.requirement.u_low,
                                    tr.requirement.u_high, tr.theta);
  tr.d_new_max = peak * rng.uniform(0.6, 1.1);
  return tr;
}

Observation random_reading(Rng& rng, const DemandTrace& d, std::size_t i) {
  switch (rng.uniform_index(8)) {
    case 0:
      return Observation::missing();
    case 1: {
      const std::size_t k = 1 + rng.uniform_index(4);
      return Observation{k <= i ? d[i - k] : rng.uniform(0.0, 3.0),
                         ObservationClass::kStale, k};
    }
    case 2: {
      const double garbage[] = {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -1.0, 1e6};
      return Observation{garbage[rng.uniform_index(4)],
                         ObservationClass::kCorrupt, 0};
    }
    case 3:  // a garbage value the pipeline failed to flag
      return Observation::ok(rng.bernoulli(0.5) ? -0.5 : 1e6);
    default:
      return Observation::ok(d[i] * rng.uniform(0.8, 1.2));
  }
}

Scenario random_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  // 168 and 672 slots (hourly), 63 and 1260 slots at an odd slots_per_day
  // (9 and 45), 2016 (one 5-minute week, a multiple of the block), and
  // rarely four 5-minute weeks with few apps.
  const Calendar calendars[] = {Calendar(1, 60),  Calendar(4, 60),
                                Calendar(1, 160), Calendar(4, 32),
                                Calendar(1, 5)};
  const bool long_run = rng.bernoulli(0.05);
  const Calendar cal =
      long_run ? Calendar(4, 5) : calendars[rng.uniform_index(5)];
  const std::size_t slots = cal.size();
  const std::size_t n = 1 + rng.uniform_index(long_run ? 4 : 40);

  for (std::size_t a = 0; a < n; ++a) {
    const double level = rng.uniform(0.0, 4.0);
    std::vector<double> v(slots);
    for (double& x : v) {
      x = rng.bernoulli(0.1) ? 0.0 : level * rng.uniform(0.5, 1.5);
      if (rng.bernoulli(0.02)) x *= 3.0;
    }
    const double peak = *std::max_element(v.begin(), v.end()) + 0.1;
    std::string name = "app-";
    name += std::to_string(a);
    s.demands.emplace_back(std::move(name), cal, std::move(v));
    s.normal.push_back(random_translation(rng, peak));
    // A relaxed failure-mode band, so judging a slot in the wrong mode
    // shows.
    s.failure.push_back(random_translation(rng, peak, 0.8, 0.95));
  }

  const std::size_t servers = 1 + rng.uniform_index(8);
  for (std::size_t k = 0; k < servers; ++k) {
    std::string name = "s";
    name += std::to_string(k);
    s.pool.push_back(
        sim::ServerSpec{std::move(name), 1 + rng.uniform_index(16)});
  }

  // Phase starts: slot 0, a few random slots, and the slots around the
  // first block edge.
  std::vector<std::size_t> starts{0};
  for (std::size_t k = rng.uniform_index(6); k > 0; --k) {
    starts.push_back(1 + rng.uniform_index(slots - 1));
  }
  for (const std::size_t edge : {kScheduleBlockSlots - 1, kScheduleBlockSlots,
                                 kScheduleBlockSlots + 1}) {
    if (edge < slots && rng.bernoulli(0.4)) starts.push_back(edge);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  for (const std::size_t start : starts) {
    SchedulePhase phase;
    phase.start_slot = start;
    phase.down.resize(servers);
    std::vector<std::size_t> live;
    for (std::size_t k = 0; k < servers; ++k) {
      phase.down[k] = rng.bernoulli(0.2);
      if (!phase.down[k]) live.push_back(k);
    }
    const SchedulePhase* prev = s.phases.empty() ? nullptr : &s.phases.back();
    for (std::size_t a = 0; a < n; ++a) {
      std::size_t host = kUnhosted;
      bool failure_mode = rng.bernoulli(0.4);
      // Half the apps keep their host and mode where they can, so phase
      // boundaries both reset and keep controllers.
      if (prev != nullptr && rng.bernoulli(0.5) &&
          (prev->hosts[a] == kUnhosted || !phase.down[prev->hosts[a]])) {
        host = prev->hosts[a];
        failure_mode = prev->failure_mode[a];
      } else if (!live.empty() && !rng.bernoulli(0.1)) {
        host = live[rng.uniform_index(live.size())];
      }
      phase.hosts.push_back(host);
      phase.failure_mode.push_back(failure_mode);
    }
    s.phases.push_back(std::move(phase));
  }

  for (std::size_t k = rng.uniform_index(2 * n + 1); k > 0; --k) {
    OutageWindow w;
    w.app = rng.uniform_index(n);
    // Some windows straddle the first block edge; some run past the end.
    w.begin = rng.bernoulli(0.3) && slots > kScheduleBlockSlots
                  ? kScheduleBlockSlots - 1 - rng.uniform_index(8)
                  : rng.uniform_index(slots);
    w.end = w.begin + rng.uniform_index(200);
    s.outages.push_back(w);
  }

  const Policy policies[] = {Policy::kReactive, Policy::kClairvoyant,
                             Policy::kWindowedMax};
  s.policy = policies[rng.uniform_index(3)];
  s.window = 1 + rng.uniform_index(6);
  const FallbackPolicy fallbacks[] = {FallbackPolicy::kHoldLast,
                                      FallbackPolicy::kDecayToMax,
                                      FallbackPolicy::kEntitlementFloor};
  s.degraded.fallback = fallbacks[rng.uniform_index(3)];
  s.degraded.stale_tolerance = rng.uniform_index(3);
  s.degraded.decay_intervals = 1 + rng.uniform_index(6);
  s.degraded.spike_threshold_factor =
      rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.5, 4.0);

  s.source = static_cast<Source>(rng.uniform_index(3));
  if (s.source == Source::kChannels) {
    s.model.drop_rate = rng.uniform(0.0, 0.2);
    s.model.stale_rate = rng.uniform(0.0, 0.3);
    s.model.max_staleness = 1 + rng.uniform_index(8);
    s.model.corrupt_rate = rng.uniform(0.0, 0.1);
    s.model.noise_stddev = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
    s.model.blackout_rate = rng.uniform(0.0, 0.05);
    s.model.blackout_mean_intervals = rng.uniform(1.0, 8.0);
    s.channel_seed = rng.uniform_index(std::uint64_t{1} << 62);
  } else if (s.source == Source::kStreams) {
    s.streams.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t i = 0; i < slots; ++i) {
        s.streams[a].push_back(random_reading(rng, s.demands[a], i));
      }
    }
  }
  if (!long_run && rng.bernoulli(0.25)) {
    s.record_stride = rng.bernoulli(0.5) ? 1 : 3;
  }
  return s;
}

std::vector<TelemetryChannel> channels_for(const Scenario& s) {
  std::vector<TelemetryChannel> channels;
  SplitMix64 seeds(s.channel_seed);
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    channels.emplace_back(s.model, seeds.next());
  }
  return channels;
}

/// The oracle's input: every app's readings sampled up front.
std::vector<std::vector<Observation>> sampled_streams(const Scenario& s) {
  if (s.source == Source::kStreams) return s.streams;
  std::vector<std::vector<Observation>> out;
  if (s.source == Source::kPerfect) return out;
  std::vector<TelemetryChannel> channels = channels_for(s);
  out.resize(s.demands.size());
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    out[a].resize(s.demands[a].size());
    channels[a].observe_block(s.demands[a].values(), out[a]);
  }
  return out;
}

/// Replays `s` through `run` under a fresh recorder (when the scenario
/// records) and returns the result plus the recording.
template <typename Run>
std::pair<ScheduleResult, obs::Recording> replay(const Scenario& s,
                                                 const fs::path& path,
                                                 Run&& run) {
  if (s.record_stride == 0) return {run(), obs::Recording{}};
  obs::RecorderConfig config;
  config.path = path;
  config.stride = s.record_stride;
  config.ring_records = 0;
  obs::Recorder recorder(config);
  obs::Recorder::set_active(&recorder);
  ScheduleResult result = run();
  obs::Recorder::set_active(nullptr);
  recorder.finish();
  obs::Recording recording = obs::read_recording(path);
  fs::remove(path);
  return {std::move(result), std::move(recording)};
}

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> record_bits(const obs::SlotRecord& r) {
  return {r.slot,        r.app,           r.section,
          r.telemetry,   r.flags,         bits(r.demand),
          bits(r.cos1),  bits(r.cos2),    bits(r.granted),
          bits(r.satisfied2)};
}

std::vector<std::size_t> health_fields(const HealthReport& h) {
  return {h.intervals,          h.ok,
          h.stale,              h.missing,
          h.corrupt,            h.fallback_intervals,
          h.fallback_activations, h.longest_blackout};
}

std::vector<std::uint64_t> count_fields(const ComplianceReport& r) {
  return {r.intervals,          r.idle,
          r.acceptable,         r.degraded,
          r.violating,          r.degraded_telemetry,
          r.violating_telemetry, bits(r.longest_degraded_minutes)};
}

class ScheduleBlocking : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus_schedule_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::Recorder::set_active(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(ScheduleBlocking, RandomSchedulesMatchTheSlotMajorReplayBitForBit) {
  std::size_t recorded = 0;
  std::size_t by_source[3] = {0, 0, 0};
  ComplianceReport judged;  // summed over every app and mode
  std::size_t failure_judged = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = random_scenario(seed);
    std::string trace = "seed ";
    trace += std::to_string(seed);
    trace += ", ";
    trace += std::to_string(s.demands.size());
    trace += " apps, ";
    trace += std::to_string(s.demands.front().size());
    trace += " slots";
    SCOPED_TRACE(trace);
    by_source[static_cast<int>(s.source)] += 1;
    if (s.record_stride > 0) recorded += 1;

    const std::vector<std::vector<Observation>> streams = sampled_streams(s);
    const auto [want, want_rec] = replay(s, dir_ / "want.bin", [&] {
      return slot_major_schedule(s.demands, s.normal, s.failure, s.pool,
                                 s.phases, s.outages, s.policy, s.window,
                                 streams, s.degraded);
    });

    std::vector<TelemetryChannel> channels = channels_for(s);
    ScheduleTelemetry telemetry;
    telemetry.degraded = s.degraded;
    if (s.source == Source::kChannels) {
      telemetry.observe = [&channels](std::size_t app, std::size_t,
                                      std::span<const double> true_demand,
                                      std::span<Observation> out) {
        channels[app].observe_block(true_demand, out);
      };
    } else if (s.source == Source::kStreams) {
      telemetry.observe = [&s](std::size_t app, std::size_t first_slot,
                               std::span<const double>,
                               std::span<Observation> out) {
        for (std::size_t k = 0; k < out.size(); ++k) {
          out[k] = s.streams[app][first_slot + k];
        }
      };
    }
    const auto [got, got_rec] = replay(s, dir_ / "got.bin", [&] {
      return run_event_schedule(s.demands, s.normal, s.failure, s.pool,
                                s.phases, s.outages, s.policy, s.window,
                                telemetry);
    });

    ASSERT_EQ(got.apps.size(), want.apps.size());
    for (std::size_t a = 0; a < want.apps.size(); ++a) {
      const ScheduleAppOutcome& w = want.apps[a];
      const ScheduleAppOutcome& g = got.apps[a];
      ASSERT_EQ(bits(g.granted), bits(w.granted)) << "app " << a;
      ASSERT_EQ(g.fallback_slots, w.fallback_slots) << "app " << a;
      ASSERT_EQ(bits(g.unserved_demand), bits(w.unserved_demand));
      ASSERT_EQ(bits(g.outage_unserved), bits(w.outage_unserved));
      ASSERT_EQ(g.unhosted_slots, w.unhosted_slots);
      ASSERT_EQ(health_fields(g.telemetry), health_fields(w.telemetry));
      ASSERT_EQ(count_fields(g.normal_mode), count_fields(w.normal_mode))
          << "app " << a;
      ASSERT_EQ(count_fields(g.failure_mode), count_fields(w.failure_mode))
          << "app " << a;
    }
    ASSERT_EQ(bits(got.unserved_demand), bits(want.unserved_demand));
    ASSERT_EQ(bits(got.outage_unserved), bits(want.outage_unserved));
    for (const ScheduleAppOutcome& app : got.apps) {
      for (const ComplianceReport* r : {&app.normal_mode, &app.failure_mode}) {
        judged.degraded += r->degraded;
        judged.violating += r->violating;
        judged.degraded_telemetry += r->degraded_telemetry;
        judged.violating_telemetry += r->violating_telemetry;
      }
      failure_judged += app.failure_mode.intervals;
    }

    ASSERT_EQ(got_rec.apps, want_rec.apps);
    ASSERT_EQ(got_rec.records.size(), want_rec.records.size());
    for (std::size_t r = 0; r < want_rec.records.size(); ++r) {
      ASSERT_EQ(record_bits(got_rec.records[r]),
                record_bits(want_rec.records[r]))
          << "record " << r;
    }
  }
  // The generator really covered every telemetry source and the recorder.
  EXPECT_GT(recorded, 20u);
  for (const std::size_t count : by_source) EXPECT_GT(count, 50u);
  // ...and the judges saw every class in both modes, and fallback slots.
  EXPECT_GT(judged.degraded, 0u);
  EXPECT_GT(judged.violating, 0u);
  EXPECT_GT(judged.degraded_telemetry + judged.violating_telemetry, 0u);
  EXPECT_GT(failure_judged, 0u);
}

TEST(ScheduleTelemetry, EveryAppIsAskedForEverySlotOnceInSlotOrder) {
  // Five apps over 168 hourly slots (one full block and a partial one),
  // with a phase starting on the block edge, an unhosted stretch and
  // outages that cross the edge: silent slots are asked too.
  const Calendar cal(1, 60);
  const std::size_t n = 5;
  Rng rng(7);
  std::vector<DemandTrace> demands;
  std::vector<qos::Translation> translations;
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<double> v(cal.size());
    for (double& x : v) x = rng.uniform(0.0, 3.0);
    std::string name = "app-";
    name += std::to_string(a);
    demands.emplace_back(std::move(name), cal, std::move(v));
    translations.push_back(random_translation(rng, 3.5));
  }
  const std::vector<sim::ServerSpec> pool = sim::homogeneous_pool(2, 8);
  SchedulePhase first;
  first.hosts = {0, 0, 1, 1, 1};
  first.failure_mode.assign(n, false);
  first.down.assign(pool.size(), false);
  SchedulePhase second = first;
  second.start_slot = kScheduleBlockSlots;
  second.hosts = {1, 1, 1, kUnhosted, 1};
  second.failure_mode.assign(n, true);
  second.down[0] = true;
  const std::vector<SchedulePhase> phases{first, second};
  const std::vector<OutageWindow> outages{{0, 120, 140}, {4, 127, 129}};

  std::vector<std::vector<std::size_t>> asked(n);
  ScheduleTelemetry telemetry;
  telemetry.observe = [&](std::size_t app, std::size_t first_slot,
                          std::span<const double> true_demand,
                          std::span<Observation> out) {
    ASSERT_EQ(out.size(), true_demand.size());
    for (std::size_t k = 0; k < true_demand.size(); ++k) {
      const std::size_t slot = first_slot + k;
      asked.at(app).push_back(slot);
      EXPECT_EQ(bits(true_demand[k]), bits(demands[app][slot]));
      out[k] = Observation::ok(true_demand[k]);
    }
  };
  (void)run_event_schedule(demands, translations, translations, pool, phases,
                           outages, Policy::kReactive, kDefaultHistoryWindow,
                           telemetry);
  std::vector<std::size_t> every_slot(cal.size());
  for (std::size_t i = 0; i < cal.size(); ++i) every_slot[i] = i;
  for (std::size_t a = 0; a < n; ++a) {
    EXPECT_EQ(asked[a], every_slot) << "app " << a;
  }
}

/// The channel as it was before its ring: the recent true values in a
/// vector whose front is erased once it holds max_staleness + 1.
class ErasingChannel {
 public:
  ErasingChannel(const TelemetryFaultModel& model, std::uint64_t seed)
      : model_(model), rng_(seed) {}

  Observation observe(double true_demand) {
    const std::size_t t = interval_;
    interval_ += 1;
    recent_.push_back(true_demand);
    if (recent_.size() > model_.max_staleness + 1) {
      recent_.erase(recent_.begin());
    }
    if (model_.blackout_rate > 0.0) {
      if (blackout_left_ > 0) {
        blackout_left_ -= 1;
        return Observation::missing();
      }
      if (rng_.bernoulli(model_.blackout_rate)) {
        blackout_left_ = static_cast<std::size_t>(
            rng_.geometric(1.0 / model_.blackout_mean_intervals));
        blackout_left_ -= 1;
        return Observation::missing();
      }
    }
    if (model_.drop_rate > 0.0 && rng_.bernoulli(model_.drop_rate)) {
      return Observation::missing();
    }
    if (model_.stale_rate > 0.0 && rng_.bernoulli(model_.stale_rate)) {
      const std::size_t k = 1 + static_cast<std::size_t>(
                                    rng_.uniform_index(model_.max_staleness));
      if (k > t) return Observation::missing();
      return Observation{recent_[recent_.size() - 1 - k],
                         ObservationClass::kStale, k};
    }
    if (model_.corrupt_rate > 0.0 && rng_.bernoulli(model_.corrupt_rate)) {
      Observation obs{0.0, ObservationClass::kCorrupt, 0};
      switch (rng_.uniform_index(4)) {
        case 0:
          obs.value = std::numeric_limits<double>::quiet_NaN();
          break;
        case 1:
          obs.value = std::numeric_limits<double>::infinity();
          break;
        case 2:
          obs.value = -(true_demand + 1.0);
          break;
        default:
          obs.value = (true_demand + 1.0) * 100.0;
          break;
      }
      return obs;
    }
    double value = true_demand;
    if (model_.noise_stddev > 0.0) {
      value = std::max(0.0, value + rng_.normal(0.0, model_.noise_stddev));
    }
    return Observation::ok(value);
  }

 private:
  TelemetryFaultModel model_;
  Rng rng_;
  std::vector<double> recent_;
  std::size_t interval_ = 0;
  std::size_t blackout_left_ = 0;
};

TEST(TelemetryChannel, RingMatchesAnErasingHistoryAcrossResets) {
  for (std::size_t max_staleness = 1; max_staleness <= 8; ++max_staleness) {
    TelemetryFaultModel model;
    model.stale_rate = 0.6;
    model.max_staleness = max_staleness;
    model.drop_rate = 0.05;
    model.corrupt_rate = 0.05;
    model.noise_stddev = 0.1;
    model.blackout_rate = 0.02;
    Rng values(max_staleness);
    // Runs shorter than, equal to and longer than the ring, each on a
    // fresh pair of channels, as each trial builds its own — so some end
    // while the ring is still growing.
    for (const std::size_t run :
         {std::size_t{2}, max_staleness, max_staleness + 1,
          std::size_t{3}, 5 * max_staleness + 7, std::size_t{1},
          std::size_t{40}}) {
      TelemetryChannel ring(model, 100 + max_staleness + run);
      ErasingChannel reference(model, 100 + max_staleness + run);
      for (std::size_t i = 0; i < run; ++i) {
        const double v = values.uniform(0.0, 5.0);
        const Observation want = reference.observe(v);
        Observation got;
        ring.observe_block(std::span(&v, 1), std::span(&got, 1));
        ASSERT_EQ(bits(got.value), bits(want.value))
            << "max_staleness " << max_staleness << ", run " << run
            << ", interval " << i;
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.staleness, want.staleness);
      }
    }
  }
}

}  // namespace
}  // namespace ropus::wlm
