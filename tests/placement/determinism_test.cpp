// The genetic search's --threads determinism contract: selection draws and
// per-child mutation seeds come off the master rng sequentially before
// dispatch, so the search result is identical at any thread count, with or
// without an active flight recorder. Also the TSan target for the shared
// required-capacity memo under parallel evaluation.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "fixtures.h"
#include "obs/recorder.h"
#include "placement/consolidator.h"
#include "placement/genetic.h"

namespace ropus::placement {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

GeneticConfig search_config() {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 25;
  cfg.stagnation_limit = 25;
  cfg.seed = 7;
  return cfg;
}

TEST(GeneticDeterminism, ResultIsIdenticalAtAnyThreadCount) {
  const auto fixture = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  const std::optional<Assignment> seed = fixture.problem->greedy_seed();
  ASSERT_TRUE(seed.has_value());
  const GeneticConfig cfg = search_config();

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const GeneticResult serial = genetic_search(*fixture.problem, *seed, cfg);

  for (const std::size_t threads : {2u, 8u}) {
    parallel::set_thread_count(threads);
    const GeneticResult sharded =
        genetic_search(*fixture.problem, *seed, cfg);
    EXPECT_EQ(serial.best, sharded.best) << threads << " threads";
    EXPECT_EQ(serial.evaluation.score, sharded.evaluation.score)
        << threads << " threads";
    EXPECT_EQ(serial.found_feasible, sharded.found_feasible);
    EXPECT_EQ(serial.generations, sharded.generations)
        << threads << " threads";
  }
}

TEST(GeneticDeterminism, InfeasibleStartIsAlsoThreadCountInvariant) {
  // Everything piled on server 0 forces the relief-mutation path, whose
  // draws now come from per-child streams.
  const auto fixture =
      testing::flat_problem({4.0, 4.0, 3.0, 3.0, 2.0, 2.0}, 4);
  const Assignment pile(fixture.demands.size(), 0);
  const GeneticConfig cfg = search_config();

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const GeneticResult serial = genetic_search(*fixture.problem, pile, cfg);
  parallel::set_thread_count(8);
  const GeneticResult sharded = genetic_search(*fixture.problem, pile, cfg);
  EXPECT_EQ(serial.best, sharded.best);
  EXPECT_EQ(serial.generations, sharded.generations);
}

TEST(GeneticDeterminism, ConsolidateUnderARecorderIsThreadCountInvariant) {
  // An active flight recorder leaves the search parallel; its report is
  // the same at 1 and 4 threads, and the search records nothing (the
  // recorder is never finished, so it writes no file).
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ropus_consolidate_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".bin");
  obs::RecorderConfig record;
  record.path = path;
  obs::Recorder recorder(record);
  obs::Recorder::set_active(&recorder);
  ConsolidationConfig cfg;
  cfg.genetic = search_config();
  const std::vector<double> demands = {3.0, 3.0, 2.5, 2.5, 2.0,
                                       2.0, 1.5, 1.0, 1.0, 0.5};

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const auto serial_fixture = testing::flat_problem(demands, 6);
  const ConsolidationReport serial =
      consolidate(*serial_fixture.problem, cfg);
  parallel::set_thread_count(4);
  const auto sharded_fixture = testing::flat_problem(demands, 6);
  const ConsolidationReport sharded =
      consolidate(*sharded_fixture.problem, cfg);
  EXPECT_EQ(obs::Recorder::active(), &recorder);
  EXPECT_EQ(recorder.section(), 0u);
  obs::Recorder::set_active(nullptr);

  ASSERT_TRUE(serial.feasible);
  EXPECT_EQ(serial.feasible, sharded.feasible);
  EXPECT_EQ(serial.assignment, sharded.assignment);
  EXPECT_EQ(serial.servers_used, sharded.servers_used);
  EXPECT_EQ(serial.total_required_capacity, sharded.total_required_capacity);
  EXPECT_EQ(serial.total_peak_allocation, sharded.total_peak_allocation);
  EXPECT_EQ(serial.generations, sharded.generations);
  testing::expect_same_evaluation(serial.evaluation, sharded.evaluation);
}

}  // namespace
}  // namespace ropus::placement
