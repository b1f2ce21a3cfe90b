// Multi-attribute placement (the Section IX extension): CPU under the
// two-CoS commitment plus memory as guaranteed demand. Memory pressure must
// change placements even when CPU alone would pack tighter, and the shared
// memo (keyed on the CPU count) must judge servers of equal CPU count but
// different memory apart.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/grid.h"
#include "fixtures.h"
#include "placement/consolidator.h"
#include "placement/problem.h"

namespace ropus::placement {
namespace {

using testing::flat_attributed_problem;
using testing::memory_pool;
using trace::Attribute;
using trace::Calendar;
using trace::DemandTrace;

constexpr std::size_t kMemory = trace::attribute_index(Attribute::kMemoryGb);

sim::ServerSpec server(std::size_t cpus, double memory_gb) {
  sim::ServerSpec s;
  s.name = "srv";
  s.cpus = cpus;
  s.memory_gb = memory_gb;
  return s;
}

GeneticConfig fast_config() {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 60;
  cfg.stagnation_limit = 15;
  return cfg;
}

TEST(MultiServerSpec, CapacityPerAttribute) {
  const sim::ServerSpec s = server(16, 64.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kCpu), 16.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kMemoryGb), 64.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kDiskMbps), 400.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kNetworkMbps), 1000.0);
  EXPECT_THROW(server(0, 1.0).validate(), InvalidArgument);
  EXPECT_THROW(server(4, -1.0).validate(), InvalidArgument);
}

TEST(MultiPool, NamesAndCopiesArchetype) {
  // Every server of a homogeneous pool gets the archetype's CPU count and
  // attribute capacities (a ServerSpec's defaults).
  const auto pool = sim::homogeneous_pool(3, 8, "node");
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].name, "node-01");
  EXPECT_EQ(pool[2].name, "node-03");
  EXPECT_EQ(pool[1].cpus, 8u);
  EXPECT_DOUBLE_EQ(pool[1].memory_gb, sim::ServerSpec{}.memory_gb);
  EXPECT_DOUBLE_EQ(pool[1].disk_mbps, sim::ServerSpec{}.disk_mbps);
}

TEST(MultiRequired, EmptyFits) {
  const auto f = flat_attributed_problem({1.0}, {10.0}, memory_pool(1, 16, 64));
  EXPECT_TRUE(f.problem->server_required_capacity({}, server(16, 64.0)).fits);
}

TEST(MultiRequired, CpuAndMemoryBothChecked) {
  // Two workloads: 2 CPUs demand each (4 CPU allocation at U_low = 0.5)
  // plus 20 GiB memory each.
  const auto f = flat_attributed_problem({2.0, 2.0}, {20.0, 20.0},
                                         memory_pool(1, 16, 64));
  const ServerVerdict fits =
      f.problem->server_required_capacity({0, 1}, server(16, 64.0));
  EXPECT_TRUE(fits.fits);
  EXPECT_NEAR(fits.capacity, 8.0, 0.1);
  EXPECT_NEAR(fits.peaks[kMemory], 40.0, 1e-9);

  // Memory-bound: the same CPU verdict (a memo hit on the same CPU count),
  // but 40 GiB > 32 GiB.
  const ServerVerdict mem_bound =
      f.problem->server_required_capacity({1, 0}, server(16, 32.0));
  EXPECT_FALSE(mem_bound.fits);
  EXPECT_EQ(mem_bound.capacity, fits.capacity);
  EXPECT_EQ(mem_bound.peaks[kMemory], fits.peaks[kMemory]);

  // CPU-bound: memory fine, 8 CPUs > 4.
  const ServerVerdict cpu_bound =
      f.problem->server_required_capacity({0, 1}, server(4, 64.0));
  EXPECT_FALSE(cpu_bound.fits);
  EXPECT_LE(cpu_bound.peaks[kMemory], 64.0);
}

TEST(MultiRequired, AbsentAttributesConsumeNothing) {
  const auto f = flat_attributed_problem({1.0}, {0.0}, memory_pool(1, 16, 64));
  const ServerVerdict v =
      f.problem->server_required_capacity({0}, server(16, 0.0));
  EXPECT_TRUE(v.fits);  // zero memory capacity is fine with no demand
  EXPECT_DOUBLE_EQ(v.peaks[kMemory], 0.0);
}

TEST(MultiRequired, AggregatesMemoryAcrossWorkloads) {
  const auto f = flat_attributed_problem({0.5, 0.5, 0.5}, {10.0, 15.0, 7.5},
                                         memory_pool(1, 16, 64));
  const ServerVerdict v =
      f.problem->server_required_capacity({0, 1, 2}, server(16, 64.0));
  EXPECT_NEAR(v.peaks[kMemory], 32.5, 1e-9);
}

TEST(WorkloadAllocations, RejectsCpuAttributeAndForeignCalendar) {
  auto f = flat_attributed_problem({1.0}, {0.0}, memory_pool(1, 16, 64));
  qos::WorkloadAllocations& w = f.workloads[0];
  const Calendar tiny = w.calendar();
  EXPECT_THROW(
      w.set_attribute(Attribute::kCpu, DemandTrace::zeros("x", tiny)),
      InvalidArgument);
  EXPECT_THROW(w.set_attribute(Attribute::kMemoryGb,
                               DemandTrace::zeros("x", Calendar(2, 720))),
               InvalidArgument);
  EXPECT_EQ(w.attribute(Attribute::kDiskMbps), nullptr);
}

TEST(WorkloadAllocations, SnapsAttributesToTheGrid) {
  auto f = flat_attributed_problem({1.0}, {0.0}, memory_pool(1, 16, 64));
  qos::WorkloadAllocations& w = f.workloads[0];
  w.set_attribute(Attribute::kMemoryGb,
                  DemandTrace("m", w.calendar(),
                              std::vector<double>(w.calendar().size(),
                                                  1.0 / 3.0)));
  for (const double v : w.attribute(Attribute::kMemoryGb)->values()) {
    ASSERT_TRUE(grid::on_grid(v));
    ASSERT_NEAR(v, 1.0 / 3.0, grid::kStep / 2.0);
  }
}

TEST(MultiProblem, MemoryPressureForcesSpread) {
  // Four workloads: 1 CPU demand (2 CPUs allocation) + 24 GiB each.
  // CPU-wise all four fit one 16-way server (8 CPUs); memory-wise a
  // 64-GiB server holds only two.
  const auto f = flat_attributed_problem({1, 1, 1, 1}, {24, 24, 24, 24},
                                         memory_pool(4, 16, 64));
  const PlacementEvaluation packed = f.problem->evaluate({0, 0, 0, 0});
  EXPECT_FALSE(packed.feasible);
  const PlacementEvaluation pairs = f.problem->evaluate({0, 0, 1, 1});
  EXPECT_TRUE(pairs.feasible);
  EXPECT_EQ(pairs.servers_used, 2u);
}

TEST(MultiProblem, EqualCpuServersWithDifferentMemoryAreJudgedApart) {
  // Two 16-way servers with 64 and 32 GiB: the pair's 48 GiB fits only
  // the first, whichever server the memo saw the hosted set on first.
  std::vector<sim::ServerSpec> pool = memory_pool(2, 16, 64);
  pool[1].memory_gb = 32.0;
  const auto f = flat_attributed_problem({1, 1}, {24, 24}, std::move(pool));
  for (int round = 0; round < 2; ++round) {
    const PlacementEvaluation small = f.problem->evaluate({1, 1});
    EXPECT_FALSE(small.feasible);
    EXPECT_FALSE(small.servers[1].fits);
    const PlacementEvaluation large = f.problem->evaluate({0, 0});
    EXPECT_TRUE(large.feasible);
    EXPECT_TRUE(large.servers[0].fits);
  }
  // The probe path shares the memo: the same pair probed on each server.
  const std::unique_ptr<DeltaPlacementContext> on_large =
      f.problem->acquire_context();
  on_large->add(0, 0);
  EXPECT_TRUE(on_large->probe(0, 1).fits);
  const std::unique_ptr<DeltaPlacementContext> on_small =
      f.problem->acquire_context();
  on_small->add(0, 1);
  EXPECT_FALSE(on_small->probe(1, 1).fits);
}

TEST(MultiProblem, GreedySeedRespectsMemory) {
  const auto f = flat_attributed_problem({1, 1, 1, 1}, {24, 24, 24, 24},
                                         memory_pool(4, 16, 64));
  const auto seed = f.problem->greedy_seed();
  ASSERT_TRUE(seed.has_value());
  const PlacementEvaluation ev = f.problem->evaluate(*seed);
  EXPECT_TRUE(ev.feasible);
  EXPECT_EQ(ev.servers_used, 2u);
}

TEST(MultiProblem, ConsolidateFindsMemoryAwarePacking) {
  const auto f = flat_attributed_problem(
      {1, 1, 1, 1, 1, 1}, {24, 24, 24, 8, 8, 8}, memory_pool(6, 16, 64));
  ConsolidationConfig cfg;
  cfg.genetic = fast_config();
  const ConsolidationReport report = consolidate(*f.problem, cfg);
  ASSERT_TRUE(report.feasible);
  // 96 GiB total memory needs >= 2 servers of 64 GiB; CPU (12) fits one.
  EXPECT_GE(report.servers_used, 2u);
  EXPECT_LE(report.servers_used, 3u);
}

TEST(MultiProblem, UtilizationUsesTightestAttribute) {
  // One workload: tiny CPU (0.5 -> 1 CPU of 16 = 6%), huge memory
  // (60 of 64 GiB = 94%). The server's scoring utilization must reflect
  // memory, not CPU.
  const auto f = flat_attributed_problem({0.5}, {60.0}, memory_pool(1, 16, 64));
  const PlacementEvaluation ev = f.problem->evaluate({0});
  ASSERT_TRUE(ev.servers[0].fits);
  EXPECT_GT(ev.servers[0].utilization, 0.9);
}

TEST(MultiProblem, CpuOnlyMatchesSingleAttributeSemantics) {
  // Without memory demand, required CPU matches the flat expectation
  // (2x demand at U_low = 0.5, theta = 1).
  const auto f = flat_attributed_problem({3.0}, {0.0}, memory_pool(1, 16, 64));
  const ServerVerdict v =
      f.problem->server_required_capacity({0}, f.problem->servers()[0]);
  ASSERT_TRUE(v.fits);
  EXPECT_NEAR(v.capacity, 6.0, 0.1);
}

TEST(MultiProblem, WorksThroughGenericConsolidateInterface) {
  const auto f = flat_attributed_problem({2, 2, 2}, {10, 10, 10},
                                         memory_pool(3, 16, 64));
  ConsolidationConfig cfg;
  cfg.genetic = fast_config();
  const ConsolidationReport report = consolidate(*f.problem, cfg);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.servers_used, 1u);  // 12 CPUs + 30 GiB fit one server
  EXPECT_NEAR(report.total_peak_allocation, 12.0, 1e-6);
}

TEST(MultiProblem, NoAttributesMatchesCpuOnlyProblem) {
  // Differential check: with no non-CPU demand attached, the
  // multi-attribute problem and the CPU-only problem agree bit for bit on
  // feasibility, required capacity, and score for any assignment.
  const auto f = flat_attributed_problem({2.0, 5.0, 3.0, 1.0},
                                         {0.0, 0.0, 0.0, 0.0},
                                         memory_pool(4, 16, 64));
  std::vector<qos::AllocationTrace> cpu_only;
  for (const auto& w : f.workloads) cpu_only.push_back(w.cpu());
  const PlacementProblem cpu_problem(cpu_only, sim::homogeneous_pool(4, 16),
                                     f.cos2);

  const std::vector<Assignment> assignments{
      {0, 0, 0, 0}, {0, 1, 2, 3}, {0, 0, 1, 1}, {3, 2, 1, 0}};
  for (const Assignment& a : assignments) {
    const PlacementEvaluation multi = f.problem->evaluate(a);
    const PlacementEvaluation single = cpu_problem.evaluate(a);
    ASSERT_EQ(multi.feasible, single.feasible);
    ASSERT_EQ(multi.servers_used, single.servers_used);
    EXPECT_EQ(multi.total_required_capacity, single.total_required_capacity);
    EXPECT_EQ(multi.score, single.score);
  }
}

}  // namespace
}  // namespace ropus::placement
