// The exact branch-and-bound solver, and cross-validation of the genetic
// search against provably optimal server counts.
#include "placement/exact.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "placement/consolidator.h"

namespace ropus::placement {
namespace {

using testing::flat_problem;

TEST(Exact, SolvesTextbookPacking) {
  // Items (CPUs): 12,12,4,4 on 16-way servers: optimal is 2.
  auto f = flat_problem({6.0, 6.0, 2.0, 2.0}, 4);
  const ExactResult r = exact_min_servers(*f.problem);
  ASSERT_TRUE(r.assignment.has_value());
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.servers_used, 2u);
  EXPECT_TRUE(f.problem->evaluate(*r.assignment).feasible);
}

TEST(Exact, DetectsInfeasibility) {
  auto f = flat_problem({10.0}, 2);  // 20 CPUs never fits a 16-way box
  const ExactResult r = exact_min_servers(*f.problem);
  EXPECT_FALSE(r.assignment.has_value());
  EXPECT_TRUE(r.exhausted);
}

TEST(Exact, NodeLimitAborts) {
  auto f = flat_problem(std::vector<double>(10, 2.0), 10);
  const ExactResult r = exact_min_servers(*f.problem, 5);
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.nodes_explored, 5u);
}

TEST(Exact, BeatsGreedyOnAdversarialInstance) {
  // FFD-hard: items 9,7,6,5,5 CPUs on 16-way boxes. FFD opens 9|7, then
  // 6+5+5 -> 9+6=15, 7+5=12, 5 -> 3 servers. Optimal: 9+7 | 6+5+5 = 2.
  auto f = flat_problem({4.5, 3.5, 3.0, 2.5, 2.5}, 5);
  const ExactResult r = exact_min_servers(*f.problem);
  ASSERT_TRUE(r.assignment.has_value());
  EXPECT_EQ(r.servers_used, 2u);
}

TEST(Exact, HeterogeneousPoolsHandled) {
  testing::Fixture f;
  f.cos2 = qos::CosCommitment{1.0, 10080.0};
  const trace::Calendar cal = testing::tiny_calendar();
  for (double d : {5.0, 5.0, 2.0}) {  // 10,10,4 CPUs of allocation
    std::string name = "w";
    name += std::to_string(f.demands.size());
    f.demands.emplace_back(std::move(name), cal,
                           std::vector<double>(cal.size(), d));
  }
  for (const auto& d : f.demands) {
    f.allocations.emplace_back(
        d, qos::translate(d, testing::flat_requirement(), f.cos2));
  }
  std::vector<sim::ServerSpec> servers{{"small", 8}, {"big", 32},
                                       {"small2", 8}};
  f.problem = std::make_unique<PlacementProblem>(f.allocations,
                                                 std::move(servers), f.cos2);
  const ExactResult r = exact_min_servers(*f.problem);
  ASSERT_TRUE(r.assignment.has_value());
  // Everything fits the one 32-way box (24 CPUs).
  EXPECT_EQ(r.servers_used, 1u);
  EXPECT_EQ((*r.assignment)[0], 1u);
}

TEST(Exact, GeneticMatchesProvenOptimumOnMediumInstances) {
  // Cross-validation on instances big enough to be non-trivial but small
  // enough to solve exactly.
  const std::vector<std::vector<double>> instances{
      {4, 4, 2, 2, 3, 3, 6, 2},        // 26 CPUs x2
      {5, 1, 1, 2, 4, 4, 3, 2, 2},     // mixed
      {6, 6, 6, 1, 1, 1, 1, 1, 1, 1},  // big items + dust
  };
  for (std::size_t k = 0; k < instances.size(); ++k) {
    auto f = flat_problem(instances[k], instances[k].size());
    const ExactResult exact = exact_min_servers(*f.problem, 2000000);
    ASSERT_TRUE(exact.exhausted) << "instance " << k;
    ASSERT_TRUE(exact.assignment.has_value()) << "instance " << k;

    ConsolidationConfig cfg;
    cfg.genetic.population = 24;
    cfg.genetic.max_generations = 150;
    cfg.genetic.stagnation_limit = 40;
    const ConsolidationReport ga = consolidate(*f.problem, cfg);
    ASSERT_TRUE(ga.feasible) << "instance " << k;
    EXPECT_EQ(ga.servers_used, exact.servers_used) << "instance " << k;
  }
}

}  // namespace
}  // namespace ropus::placement
