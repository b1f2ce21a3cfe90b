#include "workload/presets.h"

#include <gtest/gtest.h>

#include "oracles.h"
#include "trace/correlation.h"
#include "workload/generator.h"

namespace ropus::workload {
namespace {

using trace::Calendar;
using testing::mean_at_slot;

TEST(Presets, AllValidate) {
  EXPECT_NO_THROW(presets::interactive_web("web", 2.0).validate());
  EXPECT_NO_THROW(presets::batch_nightly("batch", 4.0).validate());
}

TEST(Presets, BatchPeaksAtNightWebByDay) {
  const Calendar cal(2, 5);
  const auto web = generate(presets::interactive_web("web", 2.0), cal, 5);
  const auto batch = generate(presets::batch_nightly("batch", 4.0), cal, 5);
  // Web: 2pm >> 2am. Batch: 2am >> 2pm.
  const std::size_t day_slot = 14 * 12;
  const std::size_t night_slot = 2 * 12;
  EXPECT_GT(mean_at_slot(web, day_slot), 2.0 * mean_at_slot(web, night_slot));
  EXPECT_GT(mean_at_slot(batch, night_slot),
            2.0 * mean_at_slot(batch, day_slot));
}

TEST(Presets, WebAndBatchAntiCorrelate) {
  const Calendar cal(2, 5);
  const auto web = generate(presets::interactive_web("web", 2.0), cal, 7);
  const auto batch = generate(presets::batch_nightly("batch", 4.0), cal, 7);
  EXPECT_LT(trace::correlation(web, batch), -0.1);
}

}  // namespace
}  // namespace ropus::workload
