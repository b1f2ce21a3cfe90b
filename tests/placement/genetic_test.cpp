#include "placement/genetic.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "fixtures.h"

namespace ropus::placement {
namespace {

using testing::flat_problem;

GeneticConfig fast_config(std::uint64_t seed = 1) {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 60;
  cfg.stagnation_limit = 15;
  cfg.seed = seed;
  return cfg;
}

TEST(Genetic, ConsolidatesObviousPacking) {
  // Eight workloads of demand 2 (4 CPUs each): optimum is 2 full servers.
  auto f = flat_problem(std::vector<double>(8, 2.0), 8);
  const Assignment initial = one_per_server(8, 8);
  const GeneticResult r = genetic_search(*f.problem, initial, fast_config());
  ASSERT_TRUE(r.found_feasible);
  EXPECT_LE(r.evaluation.servers_used, 3u);
  EXPECT_TRUE(r.evaluation.feasible);
}

TEST(Genetic, ImprovesOnInitialScore) {
  auto f = flat_problem({2.0, 2.0, 2.0, 2.0, 1.0, 1.0}, 6);
  const Assignment initial = one_per_server(6, 6);
  const double initial_score = f.problem->evaluate(initial).score;
  const GeneticResult r = genetic_search(*f.problem, initial, fast_config());
  EXPECT_GE(r.evaluation.score, initial_score);
}

TEST(Genetic, DeterministicForSeed) {
  auto f = flat_problem({2.0, 3.0, 1.0, 4.0, 2.0}, 5);
  const Assignment initial = one_per_server(5, 5);
  const GeneticResult a = genetic_search(*f.problem, initial, fast_config(7));
  const GeneticResult b = genetic_search(*f.problem, initial, fast_config(7));
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.evaluation.score, b.evaluation.score);
}

TEST(Genetic, ReturnsFeasibleEvenFromInfeasibleStart) {
  // Start with everything crammed on server 0 (infeasible), plenty of room
  // elsewhere.
  auto f = flat_problem({4.0, 4.0, 4.0, 4.0}, 4);
  const Assignment initial(4, 0);
  EXPECT_FALSE(f.problem->evaluate(initial).feasible);
  const GeneticResult r = genetic_search(*f.problem, initial, fast_config());
  EXPECT_TRUE(r.found_feasible);
  EXPECT_TRUE(r.evaluation.feasible);
}

TEST(Genetic, ReportsInfeasibleWhenNoPlacementExists) {
  // 3 workloads of 10 demand (20 CPUs each) cannot fit 16-way servers.
  auto f = flat_problem({10.0, 10.0, 10.0}, 3);
  const GeneticResult r =
      genetic_search(*f.problem, Assignment{0, 1, 2}, fast_config());
  EXPECT_FALSE(r.found_feasible);
}

TEST(Genetic, NeverWorseThanInitialFeasible) {
  // Seeded with an already-feasible packing, the result stays feasible and
  // at least as good across several seeds.
  auto f = flat_problem({2.0, 2.0, 4.0, 3.0, 3.0, 2.0}, 6);
  const Assignment initial = one_per_server(6, 6);
  const double base = f.problem->evaluate(initial).score;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const GeneticResult r =
        genetic_search(*f.problem, initial, fast_config(seed));
    ASSERT_TRUE(r.found_feasible) << "seed " << seed;
    EXPECT_GE(r.evaluation.score, base) << "seed " << seed;
  }
}

TEST(GeneticConfig, Validation) {
  GeneticConfig cfg = fast_config();
  cfg.population = 1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.population = 2;  // a tournament of 3 and two elites need 3
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.population = 3;
  EXPECT_NO_THROW(cfg.validate());
  cfg = fast_config();
  cfg.max_generations = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = fast_config();
  cfg.stagnation_limit = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace ropus::placement
