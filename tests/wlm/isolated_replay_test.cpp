// Differential test for run_isolated, the one-app schedule behind
// `ropus_cli wlm` and the telemetry ablation. The slot loop it replaced is
// kept below as the oracle: one Controller::observe per reading, granted =
// requested. Seeded random traces at 1, 3 and 288 slots per day, under
// every policy and fallback, perfect telemetry, each fault process alone
// and all of them together, with peak allocations that are and are not
// whole numbers of CPUs, must give the same grant bits, fallback bytes,
// health report and flight recording through both.
#include "wlm/failure_drill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/recorder.h"
#include "qos/translation.h"

namespace ropus::wlm {
namespace {

namespace fs = std::filesystem;
using trace::Calendar;
using trace::DemandTrace;

struct Oracle {
  std::vector<double> granted;
  std::vector<std::uint8_t> fallback;
  HealthReport health;
};

/// The isolated slot loop: the readings are sampled up front, each steps
/// the controller once, and the grant is the request. Records every
/// `rec->should_record` slot into `rec` when it is not null.
Oracle slot_loop(const DemandTrace& t, const qos::Translation& tr,
                 Policy policy, std::size_t window,
                 const TelemetryFaultModel& model, std::uint64_t seed,
                 const DegradedModeConfig& degraded, obs::Recorder* rec) {
  Controller ctl(tr, policy, window, degraded);
  TelemetryChannel channel(model, seed);
  std::vector<Observation> readings(t.size());
  channel.observe_block(t.values(), readings);
  Oracle o;
  o.granted.assign(t.size(), 0.0);
  o.fallback.assign(t.size(), 0);
  const std::uint16_t rec_app = rec != nullptr ? rec->app_id(t.name()) : 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const AllocationRequest r = ctl.observe(readings[i]);
    o.granted[i] = r.total();
    o.fallback[i] = ctl.in_fallback() ? 1 : 0;
    if (rec == nullptr || !rec->should_record(i)) continue;
    obs::SlotRecord record;
    record.slot = static_cast<std::uint32_t>(i);
    record.app = rec_app;
    record.section = rec->section();
    record.telemetry = static_cast<std::uint8_t>(
        static_cast<int>(readings[i].kind) + 1);
    if (o.fallback[i] != 0) record.flags |= obs::SlotRecord::kFallback;
    record.demand = t[i];
    record.cos1 = r.cos1;
    record.cos2 = r.cos2;
    record.granted = o.granted[i];
    record.satisfied2 =
        std::min(r.cos2, std::max(0.0, o.granted[i] - r.cos1));
    rec->append(record);
  }
  o.health = ctl.health();
  return o;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(bits(v));
  return out;
}

std::vector<std::uint64_t> record_bits(const obs::SlotRecord& r) {
  return {r.slot,       r.app,          r.section,       r.telemetry,
          r.flags,      bits(r.demand), bits(r.cos1),    bits(r.cos2),
          bits(r.granted), bits(r.satisfied2)};
}

std::vector<std::size_t> health_fields(const HealthReport& h) {
  return {h.intervals,          h.ok,
          h.stale,              h.missing,
          h.corrupt,            h.fallback_intervals,
          h.fallback_activations, h.longest_blackout};
}

/// One fault process alone (0-4), all five together (5), or none (6).
TelemetryFaultModel fault_model(int which) {
  TelemetryFaultModel m;
  const bool all = which == 5;
  if (which == 0 || all) m.drop_rate = 0.15;
  if (which == 1 || all) m.stale_rate = 0.2;
  if (which == 2 || all) m.corrupt_rate = 0.1;
  if (which == 3 || all) m.noise_stddev = 0.3;
  if (which == 4 || all) m.blackout_rate = 0.03;
  return m;
}

/// A translation of peak `peak_allocation` CPUs under U_low `u_low`.
qos::Translation translation(Rng& rng, double u_low, double peak_allocation) {
  qos::Translation tr;
  tr.requirement.u_low = u_low;
  tr.requirement.u_high = 0.66;
  tr.requirement.u_degr = 0.9;
  tr.requirement.m_percent = 97.0;
  tr.theta = rng.uniform(0.3, 1.0);
  tr.breakpoint_p = qos::breakpoint(u_low, tr.requirement.u_high, tr.theta);
  tr.d_new_max = peak_allocation * u_low;
  return tr;
}

class IsolatedReplay : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus_isolated_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::Recorder::set_active(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(IsolatedReplay, MatchesTheSlotLoopBitForBit) {
  const Policy policies[] = {Policy::kClairvoyant, Policy::kReactive,
                             Policy::kWindowedMax};
  const FallbackPolicy fallbacks[] = {FallbackPolicy::kHoldLast,
                                      FallbackPolicy::kDecayToMax,
                                      FallbackPolicy::kEntitlementFloor};
  // 1 and 3 slots per day over 40 and 13 weeks (280 and 273 slots, across
  // block edges), and one 5-minute week.
  const Calendar calendars[] = {Calendar(40, 1440), Calendar(13, 480),
                                Calendar(1, 5)};
  std::uint64_t seed = 0;
  std::size_t whole_peaks = 0;
  std::size_t fallback_slots = 0;
  for (const Policy policy : policies) {
    for (const FallbackPolicy fallback : fallbacks) {
      for (int faults = 0; faults <= 6; ++faults) {
        for (const Calendar& cal : calendars) {
          ++seed;
          Rng rng(seed);
          // Even seeds: a whole number of CPUs at a U_low whose division
          // is exact, so the server's +1 CPU is all the margin there is.
          const bool whole = seed % 2 == 0;
          const double u_low = whole ? 0.5 : rng.uniform(0.3, 0.6);
          const double peak = whole
                                  ? static_cast<double>(rng.uniform_index(20))
                                  : rng.uniform(0.0, 20.0);
          const qos::Translation tr = translation(rng, u_low, peak);
          if (whole) {
            ASSERT_EQ(tr.peak_allocation(), peak);
            whole_peaks += 1;
          }
          // Demand from 0 to past D_new_max, with idle slots and spikes.
          std::vector<double> v(cal.size());
          for (double& x : v) {
            x = rng.bernoulli(0.1) ? 0.0
                                   : rng.uniform(0.0, 1.2) * tr.d_new_max;
            if (rng.bernoulli(0.02)) x *= 4.0;
          }
          const DemandTrace t("app-" + std::to_string(seed), cal,
                              std::move(v));
          const std::size_t window = 1 + rng.uniform_index(5);
          DegradedModeConfig degraded;
          degraded.fallback = fallback;
          degraded.stale_tolerance = rng.uniform_index(3);
          degraded.decay_intervals = 1 + rng.uniform_index(6);
          degraded.spike_threshold_factor = rng.bernoulli(0.5) ? 3.0 : 0.0;
          const TelemetryFaultModel model = fault_model(faults);
          const std::uint64_t channel_seed = rng.derive_seed();
          const std::size_t stride = 1 + 2 * rng.uniform_index(2);
          SCOPED_TRACE("seed " + std::to_string(seed) + ", peak " +
                       std::to_string(peak) + ", " +
                       std::to_string(cal.size()) + " slots, stride " +
                       std::to_string(stride));

          obs::RecorderConfig config;
          config.stride = stride;
          config.ring_records = 0;
          config.path = dir_ / "want.bin";
          obs::Recorder want_rec(config);
          const Oracle want = slot_loop(t, tr, policy, window, model,
                                        channel_seed, degraded, &want_rec);
          want_rec.finish();

          config.path = dir_ / "got.bin";
          obs::Recorder got_rec(config);
          obs::Recorder::set_active(&got_rec);
          TelemetryChannel channel(model, channel_seed);
          const ScheduleAppOutcome got =
              run_isolated(t, tr, policy, window, channel, degraded);
          obs::Recorder::set_active(nullptr);
          got_rec.finish();

          ASSERT_EQ(bits(got.granted), bits(want.granted));
          ASSERT_EQ(got.fallback_slots, want.fallback);
          ASSERT_EQ(health_fields(got.telemetry), health_fields(want.health));
          EXPECT_EQ(got.unhosted_slots, 0u);
          const obs::Recording want_file =
              obs::read_recording(dir_ / "want.bin");
          const obs::Recording got_file =
              obs::read_recording(dir_ / "got.bin");
          ASSERT_EQ(got_file.apps, want_file.apps);
          ASSERT_EQ(got_file.records.size(), want_file.records.size());
          ASSERT_EQ(got_file.records.size(),
                    (cal.size() + stride - 1) / stride);
          for (std::size_t r = 0; r < got_file.records.size(); ++r) {
            ASSERT_EQ(record_bits(got_file.records[r]),
                      record_bits(want_file.records[r]))
                << "record " << r;
          }
          for (const std::uint8_t f : want.fallback) fallback_slots += f;
        }
      }
    }
  }
  // The grid above reached the whole-CPU edge and the fallback paths.
  EXPECT_EQ(whole_peaks, seed / 2);
  EXPECT_GT(fallback_slots, 0u);
}

}  // namespace
}  // namespace ropus::wlm
