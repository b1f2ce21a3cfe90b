#include "stress/queue_sim.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ropus::stress {
namespace {

Workload standard() { return Workload{20.0, 0.02}; }  // demand 0.4 CPUs

TEST(Workload, MeanCpuDemand) {
  EXPECT_DOUBLE_EQ(standard().mean_cpu_demand(), 0.4);
  EXPECT_THROW((Workload{0.0, 0.1}.validate()), InvalidArgument);
  EXPECT_THROW((Workload{1.0, 0.0}.validate()), InvalidArgument);
}

TEST(Simulate, RequiresStableSystem) {
  EXPECT_THROW(simulate_fcfs(standard(), 0.4, 1000, 1), InvalidArgument);
  EXPECT_THROW(simulate_fcfs(standard(), 0.3, 1000, 1), InvalidArgument);
  EXPECT_THROW(simulate_fcfs(standard(), 1.0, 50, 1), InvalidArgument);
}

TEST(Simulate, Deterministic) {
  const QueueMetrics a = simulate_fcfs(standard(), 0.8, 20000, 5);
  const QueueMetrics b = simulate_fcfs(standard(), 0.8, 20000, 5);
  EXPECT_DOUBLE_EQ(a.mean_response, b.mean_response);
  EXPECT_DOUBLE_EQ(a.p95_response, b.p95_response);
}

TEST(Simulate, MatchesAnalyticMm1) {
  // rho = 0.5: R = (0.02/0.8) / 0.5 = 0.05 s.
  const Workload w = standard();
  const double cap = 0.8;
  const QueueMetrics m = simulate_fcfs(w, cap, 400000, 11);
  const double analytic = analytic_mm1_response(w, cap);
  EXPECT_NEAR(m.mean_response, analytic, analytic * 0.05);
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);
}

TEST(Simulate, ResponseGrowsWithUtilization) {
  const Workload w = standard();
  const double r_low = simulate_fcfs(w, 1.6, 100000, 3).mean_response;
  const double r_mid = simulate_fcfs(w, 0.8, 100000, 3).mean_response;
  const double r_high = simulate_fcfs(w, 0.5, 100000, 3).mean_response;
  EXPECT_LT(r_low, r_mid);
  EXPECT_LT(r_mid, r_high);
}

TEST(Simulate, P95AboveMean) {
  const QueueMetrics m = simulate_fcfs(standard(), 0.8, 100000, 13);
  EXPECT_GT(m.p95_response, m.mean_response);
}

TEST(Analytic, DivergesNearSaturation) {
  const Workload w = standard();
  EXPECT_GT(analytic_mm1_response(w, 0.41), analytic_mm1_response(w, 0.8));
  EXPECT_THROW(analytic_mm1_response(w, 0.4), InvalidArgument);
}


}  // namespace
}  // namespace ropus::stress
