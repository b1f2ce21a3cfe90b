#include "obs/burnrate.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ropus::obs {
namespace {

/// One rule with 1-slot short and 4-slot long windows at 10x threshold:
/// budget 0.1 means a slot is 10x burn when every request in it is bad.
BurnRateConfig tight_config() {
  BurnRateConfig config;
  config.budget = 0.1;
  config.minutes_per_slot = 1.0;
  config.rules.clear();
  config.rules.push_back({"page", 1.0, 4.0, 10.0, BurnSeverity::kCritical});
  return config;
}

/// True while `rule` is among the stream's firing alerts.
bool firing(const BurnRate& burn, std::string_view rule) {
  for (const BurnAlert& alert : burn.active_alerts()) {
    if (alert.rule == rule) return true;
  }
  return false;
}

TEST(BurnRateTest, SustainedErrorsFireAndRecoveryResolves) {
  BurnRate burn("slo", tight_config());
  // Healthy stream: nothing fires.
  for (std::uint64_t slot = 0; slot < 8; ++slot) burn.observe(slot, 1, 0);
  EXPECT_FALSE(firing(burn, "page"));
  EXPECT_EQ(burn.active_count(), 0u);

  // Sustained 100% errors: short window saturates immediately, the long
  // window crosses once enough bad slots accumulate.
  for (std::uint64_t slot = 8; slot < 16; ++slot) burn.observe(slot, 1, 1);
  EXPECT_TRUE(firing(burn, "page"));
  EXPECT_EQ(burn.active_count(), 1u);
  ASSERT_EQ(burn.active_alerts().size(), 1u);
  EXPECT_EQ(burn.active_alerts()[0].rule, "page");
  EXPECT_EQ(burn.active_alerts()[0].severity, BurnSeverity::kCritical);

  // Recovery: good slots drain both windows and the rule resolves.
  for (std::uint64_t slot = 16; slot < 32; ++slot) burn.observe(slot, 1, 0);
  EXPECT_FALSE(firing(burn, "page"));

  // The transition log holds the fire and the resolve, in order.
  ASSERT_GE(burn.alerts().size(), 2u);
  EXPECT_TRUE(burn.alerts().front().active);
  EXPECT_FALSE(burn.alerts().back().active);
}

TEST(BurnRateTest, IsolatedBlipDoesNotPage) {
  BurnRate burn("slo", tight_config());
  for (std::uint64_t slot = 0; slot < 10; ++slot) burn.observe(slot, 1, 0);
  burn.observe(10, 1, 1);  // one bad slot
  // Short window is hot, but the long window (1 bad of 4+) stays under
  // threshold — the multi-window AND is what suppresses one-off blips.
  EXPECT_FALSE(firing(burn, "page"));
  for (std::uint64_t slot = 11; slot < 16; ++slot) burn.observe(slot, 1, 0);
  EXPECT_FALSE(firing(burn, "page"));
  EXPECT_TRUE(burn.alerts().empty());
}

TEST(BurnRateTest, BurnIsRatioOverBudget) {
  BurnRateConfig config = tight_config();
  config.rules[0].threshold = 4.0;
  BurnRate burn("slo", config);
  // 4 slots, half the requests bad: frac 0.5, budget 0.1 -> 5x over both
  // the 1-slot and the 4-slot window.
  for (std::uint64_t slot = 0; slot < 4; ++slot) burn.observe(slot, 2, 1);
  const std::vector<BurnAlert> active = burn.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_NEAR(active[0].burn_short, 5.0, 1e-9);
  EXPECT_NEAR(active[0].burn_long, 5.0, 1e-9);
}

TEST(BurnRateTest, DefaultRulesMatchTheStandardLadder) {
  const std::vector<BurnRateRule> rules = default_burn_rules();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "fast");
  EXPECT_DOUBLE_EQ(rules[0].threshold, 14.4);
  EXPECT_EQ(rules[0].severity, BurnSeverity::kCritical);
  EXPECT_EQ(rules[1].name, "slow");
  EXPECT_DOUBLE_EQ(rules[1].threshold, 3.0);
}

TEST(BurnRateTest, AlertLogIsBounded) {
  BurnRate burn("slo", tight_config());
  // Alternate hot and cold stretches: each cycle fires the rule and
  // resolves it, so 140 cycles make 280 transitions, more than the log
  // keeps.
  std::uint64_t slot = 0;
  for (int cycle = 0; cycle < 140; ++cycle) {
    for (int i = 0; i < 8; ++i) burn.observe(slot++, 1, 1);
    for (int i = 0; i < 16; ++i) burn.observe(slot++, 1, 0);
  }
  EXPECT_EQ(burn.alerts().size(), BurnRate::kMaxAlerts);
  EXPECT_EQ(burn.alerts_dropped(), 280u - BurnRate::kMaxAlerts);
}

TEST(BurnRateTest, SlotsMustBeNonDecreasing) {
  BurnRate burn("slo", tight_config());
  burn.observe(5, 1, 0);
  EXPECT_THROW(burn.observe(4, 1, 0), InvalidArgument);
  burn.observe(5, 1, 0);  // same slot is allowed (multiple events per slot)
}

TEST(BurnRateTest, ConfigValidates) {
  BurnRateConfig bad_budget = tight_config();
  bad_budget.budget = 0.0;
  EXPECT_THROW(BurnRate("s", bad_budget), InvalidArgument);
  BurnRateConfig bad_windows = tight_config();
  bad_windows.rules[0].long_minutes = 0.5;  // shorter than short window
  EXPECT_THROW(BurnRate("s", bad_windows), InvalidArgument);
  EXPECT_THROW(BurnRate("", tight_config()), InvalidArgument);
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
