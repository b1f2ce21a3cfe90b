// Section VI-C: single-failure sweep and the spare-server report.
#include "failover/planner.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace ropus::failover {
namespace {

using trace::Calendar;
using trace::DemandTrace;

Calendar tiny() { return Calendar(1, 720); }

qos::Requirement band(double u_low, double u_high, double u_degr) {
  qos::Requirement r;
  r.u_low = u_low;
  r.u_high = u_high;
  r.u_degr = u_degr;
  r.m_percent = 100.0;
  return r;
}

// Six flat workloads of 2 CPUs demand. Normal mode (U_low = 0.5) needs
// 4 CPUs each = 24 total -> two 16-way servers. Failure mode (U_low = 0.8)
// needs 2.5 each = 15 total -> fits one survivor.
struct Scenario {
  std::vector<DemandTrace> demands;
  std::vector<qos::ApplicationQos> qos;
  qos::PoolCommitments commitments;
};

Scenario make_scenario(const qos::Requirement& failure_req) {
  Scenario s;
  for (int i = 0; i < 6; ++i) {
    s.demands.emplace_back("app-" + std::to_string(i), tiny(),
                           std::vector<double>(tiny().size(), 2.0));
    qos::ApplicationQos q;
    q.app_name = s.demands.back().name();
    q.normal = band(0.5, 0.66, 0.9);
    q.failure = failure_req;
    s.qos.push_back(std::move(q));
  }
  s.commitments.cos2 = qos::CosCommitment{1.0, 10080.0};
  return s;
}

PlannerConfig fast_config() {
  PlannerConfig cfg;
  cfg.normal.genetic.population = 16;
  cfg.normal.genetic.max_generations = 60;
  cfg.normal.genetic.stagnation_limit = 12;
  cfg.failure.genetic = cfg.normal.genetic;
  return cfg;
}

TEST(FailurePlanner, RelaxedFailureQosAvoidsSpare) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const FailoverReport report = planner.plan(fast_config());

  ASSERT_TRUE(report.normal.feasible);
  EXPECT_EQ(report.normal.servers_used, 2u);
  ASSERT_EQ(report.outcomes.size(), report.active_servers.size());
  for (const FailureOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.supported) << "failure of server " << o.failed_server;
    EXPECT_EQ(o.surviving_servers.size(), report.active_servers.size() - 1);
  }
  EXPECT_FALSE(report.spare_needed);
}

TEST(FailurePlanner, UnrelaxedFailureQosNeedsSpare) {
  // Failure mode as strict as normal: 24 CPUs cannot fit one 16-way
  // survivor.
  Scenario s = make_scenario(band(0.5, 0.66, 0.9));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const FailoverReport report = planner.plan(fast_config());
  ASSERT_TRUE(report.normal.feasible);
  EXPECT_TRUE(report.spare_needed);
}

TEST(FailurePlanner, AffectedAppsComeFromFailedServer) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const FailoverReport report = planner.plan(fast_config());
  for (const FailureOutcome& o : report.outcomes) {
    for (std::size_t app : o.affected_apps) {
      EXPECT_EQ(report.normal.assignment[app], o.failed_server);
    }
  }
}

TEST(FailurePlanner, SingleServerFleetAlwaysNeedsSpare) {
  // One small workload: normal mode uses one server; a failure leaves
  // nothing.
  std::vector<DemandTrace> demands;
  demands.emplace_back("solo", tiny(),
                       std::vector<double>(tiny().size(), 1.0));
  qos::ApplicationQos q;
  q.app_name = "solo";
  q.normal = band(0.5, 0.66, 0.9);
  q.failure = band(0.8, 0.9, 0.95);
  std::vector<qos::ApplicationQos> qos{q};
  qos::PoolCommitments commitments;
  commitments.cos2 = qos::CosCommitment{1.0, 10080.0};
  FailurePlanner planner(demands, qos, commitments,
                         sim::homogeneous_pool(2, 16));
  const FailoverReport report = planner.plan(fast_config());
  ASSERT_TRUE(report.normal.feasible);
  EXPECT_EQ(report.active_servers.size(), 1u);
  EXPECT_TRUE(report.spare_needed);
}

TEST(FailurePlanner, ValidatesInputs) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  EXPECT_THROW(FailurePlanner({}, s.qos, s.commitments,
                              sim::homogeneous_pool(3, 16)),
               InvalidArgument);
  std::vector<qos::ApplicationQos> short_qos(s.qos.begin(), s.qos.end() - 1);
  EXPECT_THROW(FailurePlanner(s.demands, short_qos, s.commitments,
                              sim::homogeneous_pool(3, 16)),
               InvalidArgument);
  EXPECT_THROW(FailurePlanner(s.demands, s.qos, s.commitments, {}),
               InvalidArgument);
}

TEST(FailurePlanner, TranslatesEachAppOncePerQosMode) {
  // Two active servers, so two failure scenarios; each of the six apps is
  // translated once under normal QoS and once under failure QoS, however
  // many scenarios reuse the translation.
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const obs::Counter& translations = obs::counter("qos.translate.calls");
  std::uint64_t before = translations.value();
  const FailoverReport report = planner.plan(fast_config());
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(translations.value() - before, 2 * s.demands.size());

  before = translations.value();
  const MultiFailoverReport multi = planner.plan_concurrent(fast_config(), 1);
  ASSERT_EQ(multi.outcomes.size(), 2u);
  EXPECT_EQ(translations.value() - before, 2 * s.demands.size());
}

TEST(FailurePlanner, LaterScenariosPackFromTheSharedMemo) {
  // Every scenario places the same failure-mode allocations on identical
  // 16-way survivors, so its problem shares the
  // sweep's memo and every scenario after the first repeats the first
  // one's greedy packing from memo hits alone: the whole sweep probes the
  // engine exactly as often as a sweep of its first scenario.
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const obs::Counter& probes = obs::counter("sim.incremental.delta_probes");
  std::uint64_t before = probes.value();
  const FailoverReport report = planner.plan(fast_config());
  const std::uint64_t sweep = probes.value() - before;
  ASSERT_EQ(report.outcomes.size(), 2u);

  before = probes.value();
  const MultiFailoverReport first =
      planner.plan_concurrent(fast_config(), 1, /*max_subsets=*/1);
  ASSERT_EQ(first.outcomes.size(), 1u);
  EXPECT_EQ(sweep, probes.value() - before);
}

TEST(FailurePlanner, BuildsOneDeltaContextPerScenarioPlusNormal) {
  struct ThreadCountGuard {
    ~ThreadCountGuard() { parallel::set_thread_count(0); }
  } guard;
  parallel::set_thread_count(1);
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(3, 16));
  const obs::Counter& builds = obs::counter("placement.delta_context.builds");
  const std::uint64_t before = builds.value();
  const FailoverReport report = planner.plan(fast_config());
  EXPECT_EQ(builds.value() - before, 1 + report.outcomes.size());
}

}  // namespace
}  // namespace ropus::failover
