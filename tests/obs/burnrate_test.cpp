#include "obs/burnrate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace ropus::obs {
namespace {

/// The serve daemon's tick length. With the 1% budget a slot whose every
/// request is bad burns at 100x; the fast rule's windows are 1 and 12
/// slots, the slow rule's 12 and 72.
constexpr double kMinutesPerSlot = 5.0;

/// True while `rule` is among the stream's firing alerts.
bool firing(const BurnRate& burn, std::string_view rule) {
  for (const BurnAlert& alert : burn.active_alerts()) {
    if (alert.rule == rule) return true;
  }
  return false;
}

/// Feeds `count` slots from `slot` on, each with `total` requests of which
/// `bad` failed; returns the next slot.
std::uint64_t feed(BurnRate& burn, std::uint64_t slot, std::uint64_t count,
                   std::uint64_t total, std::uint64_t bad) {
  for (std::uint64_t i = 0; i < count; ++i) burn.observe(slot++, total, bad);
  return slot;
}

TEST(BurnRateTest, SustainedErrorsFireAndRecoveryResolves) {
  BurnRate burn("slo", kMinutesPerSlot);
  // Healthy stream: nothing fires.
  std::uint64_t slot = feed(burn, 0, 100, 1, 0);
  EXPECT_EQ(burn.active_count(), 0u);

  // Sustained 100% errors: the fast rule fires once 2 of its 12-slot long
  // window are bad (16.7x), the slow rule once 3 of its 72 are (4.2x).
  slot = feed(burn, slot, 1, 1, 1);
  EXPECT_EQ(burn.active_count(), 0u);
  slot = feed(burn, slot, 1, 1, 1);
  EXPECT_TRUE(firing(burn, "fast"));
  EXPECT_FALSE(firing(burn, "slow"));
  slot = feed(burn, slot, 6, 1, 1);
  EXPECT_TRUE(firing(burn, "fast"));
  EXPECT_TRUE(firing(burn, "slow"));
  ASSERT_EQ(burn.active_alerts().size(), 2u);
  EXPECT_EQ(burn.active_alerts()[0].rule, "fast");
  EXPECT_EQ(burn.active_alerts()[0].severity, BurnSeverity::kCritical);
  EXPECT_EQ(burn.active_alerts()[0].slot, 101u);
  EXPECT_EQ(burn.active_alerts()[1].rule, "slow");
  EXPECT_EQ(burn.active_alerts()[1].severity, BurnSeverity::kWarning);
  EXPECT_EQ(burn.active_alerts()[1].slot, 102u);

  // Recovery: the fast rule's 1-slot short window clears at the first good
  // slot; the slow rule's 12-slot one once 12 good slots have passed.
  slot = feed(burn, slot, 1, 1, 0);
  EXPECT_FALSE(firing(burn, "fast"));
  EXPECT_TRUE(firing(burn, "slow"));
  slot = feed(burn, slot, 11, 1, 0);
  EXPECT_EQ(burn.active_count(), 0u);

  // The transition log holds both fires and both resolves, in order.
  ASSERT_EQ(burn.alerts().size(), 4u);
  EXPECT_TRUE(burn.alerts()[0].active);
  EXPECT_TRUE(burn.alerts()[1].active);
  EXPECT_FALSE(burn.alerts()[2].active);
  EXPECT_EQ(burn.alerts()[2].slot, 108u);
  EXPECT_FALSE(burn.alerts()[3].active);
  EXPECT_EQ(burn.alerts()[3].slot, 119u);
  EXPECT_EQ(slot, 120u);
}

TEST(BurnRateTest, IsolatedBlipDoesNotPage) {
  BurnRate burn("slo", kMinutesPerSlot);
  std::uint64_t slot = feed(burn, 0, 100, 1, 0);
  slot = feed(burn, slot, 1, 1, 1);  // one bad slot
  // Each rule's short window is hot (100x and 8.3x), but the long windows
  // (1 bad of 12, 8.3x; 1 of 72, 1.4x) stay under the thresholds — the
  // multi-window AND is what suppresses one-off blips.
  EXPECT_EQ(burn.active_count(), 0u);
  feed(burn, slot, 20, 1, 0);
  EXPECT_EQ(burn.active_count(), 0u);
  EXPECT_TRUE(burn.alerts().empty());
}

TEST(BurnRateTest, WindowsScaleWithMinutesPerSlot) {
  // At an hour per slot the fast windows are both 1 slot and the slow ones
  // 1 and 6, so the blip that does not page at 5 minutes per slot fires
  // both rules.
  BurnRate burn("slo", 60.0);
  std::uint64_t slot = feed(burn, 0, 100, 1, 0);
  feed(burn, slot, 1, 1, 1);
  EXPECT_TRUE(firing(burn, "fast"));
  EXPECT_TRUE(firing(burn, "slow"));
}

TEST(BurnRateTest, BurnIsRatioOverBudget) {
  BurnRate burn("slo", kMinutesPerSlot);
  // 5 of every 100 requests bad: 0.05 over the 0.01 budget is 5x over
  // every window, past the slow rule's 3x but short of the fast rule's
  // 14.4x.
  feed(burn, 0, 4, 100, 5);
  const std::vector<BurnAlert> active = burn.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].rule, "slow");
  EXPECT_NEAR(active[0].burn_short, 5.0, 1e-9);
  EXPECT_NEAR(active[0].burn_long, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(active[0].threshold, 3.0);
}

TEST(BurnRateTest, DefaultRulesMatchTheStandardLadder) {
  ASSERT_EQ(std::size(kBurnRules), 2u);
  EXPECT_EQ(kBurnRules[0].name, "fast");
  EXPECT_DOUBLE_EQ(kBurnRules[0].short_minutes, 5.0);
  EXPECT_DOUBLE_EQ(kBurnRules[0].long_minutes, 60.0);
  EXPECT_DOUBLE_EQ(kBurnRules[0].threshold, 14.4);
  EXPECT_EQ(kBurnRules[0].severity, BurnSeverity::kCritical);
  EXPECT_EQ(kBurnRules[1].name, "slow");
  EXPECT_DOUBLE_EQ(kBurnRules[1].short_minutes, 60.0);
  EXPECT_DOUBLE_EQ(kBurnRules[1].long_minutes, 360.0);
  EXPECT_DOUBLE_EQ(kBurnRules[1].threshold, 3.0);
  EXPECT_EQ(kBurnRules[1].severity, BurnSeverity::kWarning);
  EXPECT_DOUBLE_EQ(BurnRate::kBudget, 0.01);
  EXPECT_EQ(BurnRate::kCapacity, 1024u);
}

TEST(BurnRateTest, AlertLogIsBounded) {
  BurnRate burn("slo", kMinutesPerSlot);
  // Alternate hot and cold stretches: each cycle fires and resolves both
  // rules, so 70 cycles make 280 transitions, more than the log keeps
  // (and, at 24 slots a cycle, wrap the 1,024-point ring).
  std::uint64_t slot = 0;
  for (int cycle = 0; cycle < 70; ++cycle) {
    slot = feed(burn, slot, 8, 1, 1);
    slot = feed(burn, slot, 16, 1, 0);
  }
  EXPECT_EQ(burn.alerts().size(), BurnRate::kMaxAlerts);
  EXPECT_EQ(burn.alerts_dropped(), 280u - BurnRate::kMaxAlerts);
}

TEST(BurnRateTest, SlotsMustBeNonDecreasing) {
  BurnRate burn("slo", kMinutesPerSlot);
  burn.observe(5, 1, 0);
  EXPECT_THROW(burn.observe(4, 1, 0), InvalidArgument);
  burn.observe(5, 1, 0);  // same slot is allowed (multiple events per slot)
}

TEST(BurnRateTest, ConfigValidates) {
  EXPECT_THROW(BurnRate("", kMinutesPerSlot), InvalidArgument);
  EXPECT_THROW(BurnRate("s", 0.0), InvalidArgument);
  EXPECT_THROW(BurnRate("s", -5.0), InvalidArgument);
  EXPECT_THROW(BurnRate("s", std::nan("")), InvalidArgument);
  EXPECT_NO_THROW(BurnRate("s", 0.5));
}

TEST(BurnRateTest, DescribeMentionsStreamRuleAndState) {
  BurnAlert alert;
  alert.stream = "slo";
  alert.rule = "fast";
  alert.severity = BurnSeverity::kCritical;
  alert.slot = 42;
  alert.burn_short = 20.0;
  alert.burn_long = 15.0;
  alert.threshold = 14.4;
  alert.active = true;
  const std::string text = describe(alert);
  EXPECT_NE(text.find("slo/fast"), std::string::npos);
  EXPECT_NE(text.find("FIRING"), std::string::npos);
  EXPECT_NE(text.find("critical"), std::string::npos);
}

}  // namespace
}  // namespace ropus::obs
