// The consolidation exercise computes each thing once: the greedy packing
// is taken once and seeds the population twice, and the packer's delta
// context is leased from the problem's pool, so the genetic search that
// follows at one thread reuses it instead of building its own. Greedy
// placers leasing a context that a previous search left hosting an
// assignment must pack as on a fresh problem.
#include "placement/consolidator.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "placement/baselines.h"
#include "placement/exact.h"

namespace ropus::placement {
namespace {

using testing::expect_same_evaluation;
using testing::flat_problem;

const std::vector<double> kDemands{3.0, 3.0, 2.5, 2.5, 2.0,
                                   2.0, 1.5, 1.0, 1.0, 0.5};

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

ConsolidationConfig search_config() {
  ConsolidationConfig cfg;
  cfg.genetic.population = 16;
  cfg.genetic.max_generations = 30;
  cfg.genetic.stagnation_limit = 10;
  cfg.genetic.seed = 5;
  return cfg;
}

TEST(Consolidate, BuildsOneDeltaContextAtOneThread) {
  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const auto f = flat_problem(kDemands, 6);
  const obs::Counter& builds = obs::counter("placement.delta_context.builds");
  const std::uint64_t before = builds.value();
  const ConsolidationReport r = consolidate(*f.problem, search_config());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(builds.value() - before, 1u);
}

TEST(Consolidate, EqualsTheSearchStartedFromItsGreedyPacking) {
  const auto f = flat_problem(kDemands, 6);
  const auto g = flat_problem(kDemands, 6);
  const std::optional<Assignment> greedy = g.problem->greedy_seed();
  ASSERT_TRUE(greedy.has_value());
  const ConsolidationReport once = consolidate(*f.problem, search_config());
  const ConsolidationReport from =
      consolidate(*g.problem, *greedy, search_config());
  EXPECT_EQ(once.assignment, from.assignment);
  EXPECT_EQ(once.feasible, from.feasible);
  EXPECT_EQ(once.servers_used, from.servers_used);
  EXPECT_EQ(once.total_required_capacity, from.total_required_capacity);
  EXPECT_EQ(once.total_peak_allocation, from.total_peak_allocation);
  EXPECT_EQ(once.generations, from.generations);
  expect_same_evaluation(once.evaluation, from.evaluation);
}

TEST(Consolidate, GreedyPlacersOnAUsedContextPackLikeAFreshProblem) {
  // Leave the problem's only pooled context hosting a scrambled
  // assignment; every placer that leases it must clear it first.
  const auto used = flat_problem(kDemands, 6);
  {
    ContextLease ctx(*used.problem);
    ctx->evaluate({5, 4, 3, 2, 1, 0, 5, 4, 3, 2});
  }
  const auto fresh = flat_problem(kDemands, 6);
  EXPECT_EQ(first_fit_decreasing(*used.problem),
            first_fit_decreasing(*fresh.problem));
  EXPECT_EQ(first_fit(*used.problem), first_fit(*fresh.problem));
  EXPECT_EQ(best_fit_decreasing(*used.problem),
            best_fit_decreasing(*fresh.problem));
  EXPECT_EQ(correlation_aware_greedy(*used.problem),
            correlation_aware_greedy(*fresh.problem));
  const ExactResult exact_used = exact_min_servers(*used.problem, 200000);
  const ExactResult exact_fresh = exact_min_servers(*fresh.problem, 200000);
  EXPECT_EQ(exact_used.assignment, exact_fresh.assignment);
  EXPECT_EQ(exact_used.nodes_explored, exact_fresh.nodes_explored);
  EXPECT_EQ(random_search(*used.problem, 20, 3),
            random_search(*fresh.problem, 20, 3));
}

}  // namespace
}  // namespace ropus::placement
