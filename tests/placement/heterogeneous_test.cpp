// Heterogeneous pools: the Section VI-B score's f(U) = U^{2Z} term demands
// that big servers run hotter; the search must exploit mixed pools.
#include <gtest/gtest.h>

#include "fixtures.h"
#include "placement/baselines.h"
#include "placement/consolidator.h"

namespace ropus::placement {
namespace {

/// Like testing::flat_problem but with an explicit list of server sizes.
testing::Fixture hetero_problem(const std::vector<double>& demand_cpus,
                                const std::vector<std::size_t>& server_cpus,
                                double theta = 1.0) {
  testing::Fixture f;
  f.cos2 = qos::CosCommitment{theta, 10080.0};
  const trace::Calendar cal = testing::tiny_calendar();
  for (std::size_t i = 0; i < demand_cpus.size(); ++i) {
    std::string name = "w";
    name += std::to_string(i);
    f.demands.emplace_back(std::move(name), cal,
                           std::vector<double>(cal.size(), demand_cpus[i]));
  }
  for (const auto& d : f.demands) {
    f.allocations.emplace_back(
        d, qos::translate(d, testing::flat_requirement(), f.cos2));
  }
  std::vector<sim::ServerSpec> servers;
  for (std::size_t i = 0; i < server_cpus.size(); ++i) {
    std::string name = "srv-";
    name += std::to_string(i);
    servers.push_back(sim::ServerSpec{std::move(name), server_cpus[i]});
  }
  f.problem = std::make_unique<PlacementProblem>(f.allocations,
                                                 std::move(servers), f.cos2);
  return f;
}

GeneticConfig fast_config() {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 80;
  cfg.stagnation_limit = 20;
  return cfg;
}

TEST(Heterogeneous, RespectsPerServerCapacity) {
  // One 10-CPU workload (20 CPUs of allocation) only fits the 32-way box.
  auto f = hetero_problem({10.0}, {8, 32});
  EXPECT_FALSE(f.problem->evaluate({0}).feasible);
  EXPECT_TRUE(f.problem->evaluate({1}).feasible);
}

TEST(Heterogeneous, BigBoxesMustRunHotter) {
  // Identical utilization scores less on more CPUs: U^{2Z}.
  const double small = PlacementProblem::utilization_score(0.9, 8);
  const double large = PlacementProblem::utilization_score(0.9, 32);
  EXPECT_GT(small, large);
}

TEST(Heterogeneous, SearchFillsTheBigBoxFirst) {
  // Workloads totalling 24 CPUs of allocation; pool = one 32-way + three
  // 8-way. Packing everything on the 32-way (U = 0.75) frees three servers
  // (+3) which beats spreading across the small boxes.
  auto f = hetero_problem({3, 3, 3, 3}, {32, 8, 8, 8});
  const GeneticResult r = genetic_search(
      *f.problem, Assignment{1, 1, 2, 3}, fast_config());
  ASSERT_TRUE(r.found_feasible);
  EXPECT_EQ(r.evaluation.servers_used, 1u);
  ASSERT_FALSE(r.evaluation.servers[0].workloads.empty());
  EXPECT_EQ(r.evaluation.servers[0].workloads.size(), 4u);
}

TEST(Heterogeneous, FfdWorksAcrossSizes) {
  auto f = hetero_problem({6, 6, 2, 2, 2}, {16, 16, 8});
  const auto ffd = first_fit_decreasing(*f.problem);
  ASSERT_TRUE(ffd.has_value());
  EXPECT_TRUE(f.problem->evaluate(*ffd).feasible);
}

TEST(Heterogeneous, InfeasibleWhenEverythingTooBig) {
  auto f = hetero_problem({6.0, 6.0}, {8, 8});  // 12 CPUs alloc each
  const GeneticResult r =
      genetic_search(*f.problem, Assignment{0, 1}, fast_config());
  EXPECT_FALSE(r.found_feasible);
}

}  // namespace
}  // namespace ropus::placement
