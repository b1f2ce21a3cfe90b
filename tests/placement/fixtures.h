// Shared helpers for placement tests: flat demand traces make required
// capacity exactly predictable (with theta = 1 a workload of demand d needs
// 2d CPUs under U_low = 0.5), so placement reduces to crisp bin packing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "placement/problem.h"
#include "qos/allocation.h"
#include "qos/workload_allocations.h"
#include "sim/server.h"
#include "trace/demand_trace.h"

namespace ropus::placement::testing {

inline trace::Calendar tiny_calendar() { return trace::Calendar(1, 720); }

inline qos::Requirement flat_requirement() {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = 100.0;
  return r;
}

/// Bit comparison of two evaluations (scores with ==, not NEAR); use
/// through ASSERT_NO_FATAL_FAILURE or check HasFatalFailure().
inline void expect_same_evaluation(const PlacementEvaluation& a,
                                   const PlacementEvaluation& b) {
  ASSERT_EQ(a.score, b.score);
  ASSERT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.servers_used, b.servers_used);
  ASSERT_EQ(a.total_required_capacity, b.total_required_capacity);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t s = 0; s < a.servers.size(); ++s) {
    ASSERT_EQ(a.servers[s].workloads, b.servers[s].workloads) << s;
    ASSERT_EQ(a.servers[s].used, b.servers[s].used) << s;
    ASSERT_EQ(a.servers[s].fits, b.servers[s].fits) << s;
    ASSERT_EQ(a.servers[s].required_capacity, b.servers[s].required_capacity)
        << s;
    ASSERT_EQ(a.servers[s].utilization, b.servers[s].utilization) << s;
    ASSERT_EQ(a.servers[s].score, b.servers[s].score) << s;
  }
}

/// Holds the storage a PlacementProblem needs (it keeps spans).
struct Fixture {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocations;
  qos::CosCommitment cos2{1.0, 10080.0};
  std::unique_ptr<PlacementProblem> problem;
};

/// Builds a problem with one flat-demand workload per entry of
/// `demand_cpus`, `server_count` servers of `cpus` CPUs each. With the
/// default theta = 1 commitment, workload i consumes exactly
/// 2 * demand_cpus[i] of required capacity wherever it is placed.
inline Fixture flat_problem(const std::vector<double>& demand_cpus,
                            std::size_t server_count, std::size_t cpus = 16,
                            double theta = 1.0) {
  Fixture f;
  f.cos2 = qos::CosCommitment{theta, 10080.0};
  const trace::Calendar cal = tiny_calendar();
  for (std::size_t i = 0; i < demand_cpus.size(); ++i) {
    std::string name = "w";
    name += std::to_string(i);
    f.demands.emplace_back(std::move(name), cal,
                           std::vector<double>(cal.size(), demand_cpus[i]));
  }
  for (const auto& d : f.demands) {
    f.allocations.emplace_back(
        d, qos::translate(d, flat_requirement(), f.cos2));
  }
  f.problem = std::make_unique<PlacementProblem>(
      f.allocations, sim::homogeneous_pool(server_count, cpus), f.cos2);
  return f;
}

/// Holds the storage a multi-attribute PlacementProblem needs.
struct AttributedFixture {
  std::vector<qos::WorkloadAllocations> workloads;
  qos::CosCommitment cos2{1.0, 10080.0};
  std::unique_ptr<PlacementProblem> problem;
};

/// `server_count` servers named srv-NN with `cpus` CPUs and `memory_gb` of
/// memory each.
inline std::vector<sim::ServerSpec> memory_pool(std::size_t server_count,
                                                std::size_t cpus,
                                                double memory_gb) {
  std::vector<sim::ServerSpec> pool =
      sim::homogeneous_pool(server_count, cpus, "srv");
  for (sim::ServerSpec& s : pool) s.memory_gb = memory_gb;
  return pool;
}

/// Workload i has flat CPU demand demand_cpus[i] (allocation 2x under the
/// flat requirement) and, when memory_gb[i] > 0, flat memory demand of
/// memory_gb[i] GiB.
inline AttributedFixture flat_attributed_problem(
    const std::vector<double>& demand_cpus,
    const std::vector<double>& memory_gb, std::vector<sim::ServerSpec> pool) {
  AttributedFixture f;
  const trace::Calendar cal = tiny_calendar();
  for (std::size_t i = 0; i < demand_cpus.size(); ++i) {
    std::string name = "w";
    name += std::to_string(i);
    const trace::DemandTrace cpu(
        name, cal, std::vector<double>(cal.size(), demand_cpus[i]));
    qos::WorkloadAllocations w(qos::AllocationTrace(
        cpu, qos::translate(cpu, flat_requirement(), f.cos2)));
    if (memory_gb[i] > 0.0) {
      w.set_attribute(trace::Attribute::kMemoryGb,
                      trace::DemandTrace(name + "/mem", cal,
                                         std::vector<double>(cal.size(),
                                                             memory_gb[i])));
    }
    f.workloads.push_back(std::move(w));
  }
  f.problem =
      std::make_unique<PlacementProblem>(f.workloads, std::move(pool), f.cos2);
  return f;
}

}  // namespace ropus::placement::testing
