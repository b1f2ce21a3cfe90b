// The Section VI-B objective and the memoized server evaluation.
#include "placement/problem.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "fixtures.h"

namespace ropus::placement {
namespace {

using testing::flat_problem;

TEST(Problem, UnusedServerScoresPlusOne) {
  // One workload of demand 2 (needs 4 CPUs), two 16-way servers.
  auto f = flat_problem({2.0}, 2);
  const PlacementEvaluation ev = f.problem->evaluate({0});
  ASSERT_EQ(ev.servers.size(), 2u);
  EXPECT_FALSE(ev.servers[1].used);
  EXPECT_DOUBLE_EQ(ev.servers[1].score, 1.0);
  EXPECT_TRUE(ev.feasible);
  EXPECT_EQ(ev.servers_used, 1u);
}

TEST(Problem, UsedServerScoresUtilizationPower) {
  // Demand 4 -> required 8 of 16 CPUs: U = 0.5, f(U) = 0.5^32.
  auto f = flat_problem({4.0}, 1);
  const PlacementEvaluation ev = f.problem->evaluate({0});
  ASSERT_TRUE(ev.servers[0].fits);
  EXPECT_NEAR(ev.servers[0].utilization, 0.5, 0.01);
  EXPECT_NEAR(ev.servers[0].score, std::pow(ev.servers[0].utilization, 32.0),
              1e-12);
}

TEST(Problem, OverbookedServerScoresMinusN) {
  // Three workloads of demand 4 need 24 CPUs > 16: overbooked, N = 3.
  auto f = flat_problem({4.0, 4.0, 4.0}, 1);
  const PlacementEvaluation ev = f.problem->evaluate({0, 0, 0});
  EXPECT_FALSE(ev.feasible);
  EXPECT_DOUBLE_EQ(ev.servers[0].score, -3.0);
  EXPECT_DOUBLE_EQ(ev.score, -3.0);
}

TEST(Problem, ScoreSumsAcrossServers) {
  // Two perfect servers (U = 1) + one empty: score = 1 + 1 + 1 = 3.
  auto f = flat_problem({8.0, 8.0}, 3);
  const PlacementEvaluation ev = f.problem->evaluate({0, 1});
  EXPECT_NEAR(ev.score, 1.0 + 1.0 + 1.0, 0.05);
  EXPECT_NEAR(ev.total_required_capacity, 32.0, 0.2);
}

TEST(Problem, FullerPackingScoresHigher) {
  // Packing both 4-demand workloads together (U = 1.0 on one server, one
  // empty) beats splitting them (two servers at U = 0.5).
  auto f = flat_problem({4.0, 4.0}, 2);
  const double packed = f.problem->evaluate({0, 0}).score;
  const double split = f.problem->evaluate({0, 1}).score;
  EXPECT_GT(packed, split);
}

TEST(Problem, UtilizationScoreScalesWithCpuCount) {
  // The Z exponent: at the same utilization a bigger server scores lower,
  // demanding higher utilization of big boxes.
  EXPECT_GT(PlacementProblem::utilization_score(0.8, 4),
            PlacementProblem::utilization_score(0.8, 16));
  EXPECT_DOUBLE_EQ(PlacementProblem::utilization_score(1.0, 16), 1.0);
  EXPECT_DOUBLE_EQ(PlacementProblem::utilization_score(0.0, 16), 0.0);
  EXPECT_THROW(PlacementProblem::utilization_score(1.5, 4), InvalidArgument);
}

TEST(Problem, CacheReusesSubsetEvaluations) {
  auto f = flat_problem({2.0, 3.0, 4.0}, 3);
  (void)f.problem->evaluate({0, 0, 1});
  const std::size_t after_first = f.problem->cache_entries();
  (void)f.problem->evaluate({0, 0, 1});  // identical assignment: no growth
  EXPECT_EQ(f.problem->cache_entries(), after_first);
  (void)f.problem->evaluate({1, 1, 0});  // same subsets, different servers
  EXPECT_EQ(f.problem->cache_entries(), after_first);
  (void)f.problem->evaluate({0, 1, 2});  // new singleton subsets
  EXPECT_GT(f.problem->cache_entries(), after_first);
}

TEST(Problem, TotalPeakAllocationSumsWorkloads) {
  auto f = flat_problem({2.0, 3.0}, 2);
  // Flat demand d at U_low = 0.5 requests 2d; peaks sum to 2*2 + 2*3 = 10.
  EXPECT_NEAR(f.problem->total_peak_allocation(), 10.0, 1e-9);
}

TEST(Problem, RejectsEmptyInputs) {
  auto f = flat_problem({1.0}, 1);
  EXPECT_THROW(PlacementProblem(std::span<const qos::AllocationTrace>{},
                                sim::homogeneous_pool(1, 16), f.cos2),
               InvalidArgument);
  EXPECT_THROW(PlacementProblem(std::span<const qos::WorkloadAllocations>{},
                                sim::homogeneous_pool(1, 16), f.cos2),
               InvalidArgument);
  EXPECT_THROW(PlacementProblem(f.allocations, {}, f.cos2), InvalidArgument);
}

TEST(Problem, EvaluateValidatesAssignment) {
  auto f = flat_problem({1.0, 1.0}, 2);
  EXPECT_THROW(f.problem->evaluate({0}), InvalidArgument);
  EXPECT_THROW(f.problem->evaluate({0, 5}), InvalidArgument);
}

}  // namespace
}  // namespace ropus::placement
