// The two-priority grant rule of Section II, where it lives: CoS1 requests
// first (pro rata only past capacity), CoS2 sharing what remains.
#include "slo/kernel.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ropus::slo {
namespace {

TEST(GrantScales, AmpleCapacityGrantsEveryRequest) {
  const GrantScales g = grant_scales(16.0, 3.0, 5.0);
  EXPECT_DOUBLE_EQ(g.cos1, 1.0);
  EXPECT_DOUBLE_EQ(g.cos2, 1.0);
  EXPECT_DOUBLE_EQ(g.cos1_granted, 3.0);
  EXPECT_DOUBLE_EQ(g.cos2_granted, 5.0);
  EXPECT_DOUBLE_EQ(g.grant(1.0, 2.0), 3.0);
}

TEST(GrantScales, ContentionSqueezesCos2First) {
  // Two all-CoS2 requests of 4 CPUs on 6 CPUs: each is granted 3.
  const GrantScales all_cos2 = grant_scales(6.0, 0.0, 8.0);
  EXPECT_DOUBLE_EQ(all_cos2.cos2, 0.75);
  EXPECT_DOUBLE_EQ(all_cos2.grant(0.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(all_cos2.cos2_granted, 6.0);

  // With CoS1 in the mix, CoS1 is whole and CoS2 shares the remainder.
  const GrantScales mixed = grant_scales(10.0, 4.0, 12.0);
  EXPECT_DOUBLE_EQ(mixed.cos1, 1.0);
  EXPECT_DOUBLE_EQ(mixed.cos2, 0.5);
  EXPECT_DOUBLE_EQ(mixed.cos1_granted, 4.0);
  EXPECT_DOUBLE_EQ(mixed.cos2_granted, 6.0);
  EXPECT_DOUBLE_EQ(mixed.grant(2.0, 6.0), 5.0);
}

TEST(GrantScales, Cos1ProtectedAtExactlyItsShare) {
  // Capacity equals the CoS1 sum: every CoS1 request is granted in full
  // and CoS2 gets nothing.
  const GrantScales g = grant_scales(5.0, 5.0, 3.0);
  EXPECT_DOUBLE_EQ(g.cos1, 1.0);
  EXPECT_DOUBLE_EQ(g.cos2, 0.0);
  EXPECT_DOUBLE_EQ(g.cos1_granted, 5.0);
  EXPECT_DOUBLE_EQ(g.cos2_granted, 0.0);
  EXPECT_DOUBLE_EQ(g.grant(2.5, 1.5), 2.5);
  EXPECT_FALSE(cos1_overcommitted(2.5, g.grant(2.5, 1.5)));
}

TEST(GrantScales, Cos1OverloadScaledProRata) {
  // CoS1 asks for twice the capacity: every CoS1 request is halved, the
  // server is full, and CoS2 gets nothing.
  const GrantScales g = grant_scales(4.0, 8.0, 2.0);
  EXPECT_DOUBLE_EQ(g.cos1, 0.5);
  EXPECT_DOUBLE_EQ(g.cos2, 0.0);
  EXPECT_DOUBLE_EQ(g.cos1_granted, 4.0);
  EXPECT_DOUBLE_EQ(g.cos2_granted, 0.0);
  EXPECT_DOUBLE_EQ(g.grant(6.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(g.grant(2.0, 1.0), 1.0);
  EXPECT_TRUE(cos1_overcommitted(6.0, g.grant(6.0, 1.0)));
}

TEST(GrantScales, ZeroCapacityGrantsNothing) {
  const GrantScales g = grant_scales(0.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(g.cos1, 0.0);
  EXPECT_DOUBLE_EQ(g.cos2, 0.0);
  EXPECT_DOUBLE_EQ(g.cos1_granted, 0.0);
  EXPECT_DOUBLE_EQ(g.cos2_granted, 0.0);
  EXPECT_DOUBLE_EQ(g.grant(2.0, 3.0), 0.0);
}

TEST(GrantScales, ZeroRequestsLeaveScalesAtOne) {
  for (const double capacity : {0.0, 8.0}) {
    const GrantScales g = grant_scales(capacity, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(g.cos1, 1.0) << capacity;
    EXPECT_DOUBLE_EQ(g.cos2, 1.0) << capacity;
    EXPECT_DOUBLE_EQ(g.cos1_granted, 0.0) << capacity;
    EXPECT_DOUBLE_EQ(g.cos2_granted, 0.0) << capacity;
  }
}

TEST(GrantScales, RejectsNegativeInputs) {
  EXPECT_THROW(grant_scales(-1.0, 0.0, 0.0), InvalidArgument);
  EXPECT_THROW(grant_scales(4.0, -1.0, 0.0), InvalidArgument);
  EXPECT_THROW(grant_scales(4.0, 0.0, -1.0), InvalidArgument);
}

}  // namespace
}  // namespace ropus::slo
