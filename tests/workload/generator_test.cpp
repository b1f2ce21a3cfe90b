#include "workload/generator.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/stats.h"
#include "oracles.h"
#include "trace/trace_stats.h"

namespace ropus::workload {
namespace {

using trace::Calendar;
using testing::mean_at_slot;

Profile basic_profile() {
  Profile p;
  p.name = "test-app";
  p.base_cpus = 2.0;
  p.max_cpus = 10.0;
  return p;
}

TEST(Generator, DeterministicInSeed) {
  const Calendar cal(1, 5);
  const auto a = generate(basic_profile(), cal, 42);
  const auto b = generate(basic_profile(), cal, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const Calendar cal(1, 5);
  const auto a = generate(basic_profile(), cal, 1);
  const auto b = generate(basic_profile(), cal, 2);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++same;
  }
  EXPECT_LT(same, a.size() / 10);
}

TEST(Generator, RespectsClip) {
  Profile p = basic_profile();
  p.spike_scale = 50.0;
  p.spikes_per_day = 20.0;
  p.max_cpus = 4.0;
  const auto t = generate(p, Calendar(1, 5), 7);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(t[i], 4.0);
    EXPECT_GE(t[i], 0.0);
  }
}

TEST(Generator, DiurnalPatternVisible) {
  Profile p = basic_profile();
  p.noise_cv = 0.0;
  p.spikes_per_day = 0.0;
  p.peak_hour = 12.0;
  p.night_factor = 0.2;
  const auto t = generate(p, Calendar(1, 5), 11);
  // Demand at the peak hour well above demand at 3am.
  const std::size_t peak_slot = 12 * 12;  // 12:00 at 5-minute slots
  const std::size_t night_slot = 3 * 12;
  EXPECT_GT(mean_at_slot(t, peak_slot), 2.0 * mean_at_slot(t, night_slot));
}

TEST(Generator, WeekendsQuieterThanWeekdays) {
  Profile p = basic_profile();
  p.noise_cv = 0.0;
  p.spikes_per_day = 0.0;
  p.weekend_factor = 0.3;
  const auto t = generate(p, Calendar(2, 5), 3);
  const auto& cal = t.calendar();
  double weekday = 0.0, weekend = 0.0;
  std::size_t nd = 0, ne = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (cal.day_of(i) >= 5) {
      weekend += t[i];
      ++ne;
    } else {
      weekday += t[i];
      ++nd;
    }
  }
  EXPECT_LT(weekend / static_cast<double>(ne),
            0.5 * weekday / static_cast<double>(nd));
}

TEST(Generator, SpikesCreateHeavyTail) {
  Profile quiet = basic_profile();
  quiet.spikes_per_day = 0.0;
  Profile spiky = basic_profile();
  spiky.name = "spiky";  // different stream
  spiky.spikes_per_day = 1.0;
  spiky.spike_scale = 4.0;
  spiky.spike_pareto_alpha = 1.0;
  spiky.max_cpus = 40.0;

  const Calendar cal(4, 5);
  const double r_quiet = trace::peak_to_percentile_ratio(
      generate(quiet, cal, 5), 97.0);
  const double r_spiky = trace::peak_to_percentile_ratio(
      generate(spiky, cal, 5), 97.0);
  EXPECT_GT(r_spiky, r_quiet * 1.5);
}

TEST(Generator, NameStableStreams) {
  // Generating a profile alone or alongside others yields the same trace.
  const Calendar cal(1, 5);
  std::vector<Profile> fleet{basic_profile()};
  Profile other = basic_profile();
  other.name = "other-app";
  fleet.push_back(other);
  const auto solo = generate(basic_profile(), cal, 99);
  const auto batch = generate_all(fleet, cal, 99);
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t i = 0; i < solo.size(); ++i) {
    ASSERT_DOUBLE_EQ(batch[0][i], solo[i]);
  }
}

TEST(Profile, ValidationCatchesBadRanges) {
  Profile p = basic_profile();
  p.base_cpus = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = basic_profile();
  p.noise_phi = 1.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = basic_profile();
  p.peak_hour = 24.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = basic_profile();
  p.weekend_factor = 1.5;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

}  // namespace
}  // namespace ropus::workload
