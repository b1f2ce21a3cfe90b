// Concurrent multi-server failures — the extension the paper sketches in
// Section III ("this scenario can be extended to multiple node failures").
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "failover/planner.h"

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

struct Scenario {
  std::vector<DemandTrace> demands;
  std::vector<qos::ApplicationQos> qos;
  qos::PoolCommitments commitments;
};

// Nine flat workloads of 2 CPUs. Normal (U_low = 0.5): 4 CPUs each = 36
// total -> three 16-way servers. Failure (U_low = 0.8): 2.5 each = 22.5
// total -> fits two survivors, but not one.
Scenario make_scenario(const qos::Requirement& failure_req) {
  Scenario s;
  for (int i = 0; i < 9; ++i) {
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
  cfg.normal.genetic.max_generations = 80;
  cfg.normal.genetic.stagnation_limit = 15;
  cfg.failure.genetic = cfg.normal.genetic;
  return cfg;
}

TEST(MultiFailure, SingleFailureSupportedDoubleNot) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const MultiFailoverReport one = planner.plan_concurrent(fast_config(), 1);
  ASSERT_TRUE(one.normal.feasible);
  EXPECT_EQ(one.normal.servers_used, 3u);
  EXPECT_EQ(one.outcomes.size(), 3u);  // C(3,1)
  EXPECT_TRUE(one.all_supported());

  const MultiFailoverReport two = planner.plan_concurrent(fast_config(), 2);
  EXPECT_EQ(two.outcomes.size(), 3u);  // C(3,2)
  // 22.5 CPUs of failure-mode demand cannot fit one 16-way survivor.
  EXPECT_EQ(two.unsupported, two.outcomes.size());
  EXPECT_FALSE(two.all_supported());
}

TEST(MultiFailure, OutcomesEnumerateDistinctSubsets) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const MultiFailoverReport two = planner.plan_concurrent(fast_config(), 2);
  for (const auto& o : two.outcomes) {
    EXPECT_EQ(o.failed_servers.size(), 2u);
    EXPECT_LT(o.failed_servers[0], o.failed_servers[1]);
  }
  for (std::size_t i = 0; i < two.outcomes.size(); ++i) {
    for (std::size_t j = i + 1; j < two.outcomes.size(); ++j) {
      EXPECT_NE(two.outcomes[i].failed_servers,
                two.outcomes[j].failed_servers);
    }
  }
}

TEST(MultiFailure, MaxSubsetsCapsTheSweep) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const MultiFailoverReport capped =
      planner.plan_concurrent(fast_config(), 1, 2);
  EXPECT_EQ(capped.outcomes.size(), 2u);
}

TEST(MultiFailure, AffectedAppsUnionOfFailedServers) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const MultiFailoverReport two = planner.plan_concurrent(fast_config(), 2);
  for (const auto& o : two.outcomes) {
    std::size_t expected = 0;
    for (std::size_t srv : o.failed_servers) {
      expected += two.normal.evaluation.servers[srv].workloads.size();
    }
    EXPECT_EQ(o.affected_apps.size(), expected);
  }
}

TEST(MultiFailure, RejectsImpossibleK) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  EXPECT_THROW(planner.plan_concurrent(fast_config(), 0), InvalidArgument);
  EXPECT_THROW(planner.plan_concurrent(fast_config(), 5), InvalidArgument);
}

TEST(MultiFailure, SingleSweepAgreesWithPlan) {
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const FailoverReport single = planner.plan(fast_config());
  const MultiFailoverReport multi = planner.plan_concurrent(fast_config(), 1);
  ASSERT_EQ(single.outcomes.size(), multi.outcomes.size());
  EXPECT_EQ(single.spare_needed, !multi.all_supported());
}

void expect_same_consolidation(const placement::ConsolidationReport& a,
                               const placement::ConsolidationReport& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.evaluation.score, b.evaluation.score);
  EXPECT_EQ(a.servers_used, b.servers_used);
  EXPECT_EQ(a.total_required_capacity, b.total_required_capacity);
  EXPECT_EQ(a.generations, b.generations);
}

TEST(MultiFailure, ReportsAreIdenticalAtAnyThreadCount) {
  // The sweep's scenarios share one verdict memo that the genetic search's
  // parallel offspring hit from every worker; which worker fills an entry
  // first must not change any answer.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { parallel::set_thread_count(0); }
  } guard;
  Scenario s = make_scenario(band(0.8, 0.9, 0.95));
  FailurePlanner planner(s.demands, s.qos, s.commitments,
                         sim::homogeneous_pool(4, 16));
  const PlannerConfig cfg = fast_config();
  parallel::set_thread_count(1);
  const FailoverReport single = planner.plan(cfg);
  const MultiFailoverReport pairs = planner.plan_concurrent(cfg, 2);
  ASSERT_EQ(pairs.outcomes.size(), 3u);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    parallel::set_thread_count(threads);
    const FailoverReport single_t = planner.plan(cfg);
    expect_same_consolidation(single_t.normal, single.normal);
    EXPECT_EQ(single_t.active_servers, single.active_servers);
    EXPECT_EQ(single_t.spare_needed, single.spare_needed);
    ASSERT_EQ(single_t.outcomes.size(), single.outcomes.size());
    for (std::size_t i = 0; i < single.outcomes.size(); ++i) {
      const FailureOutcome& x = single_t.outcomes[i];
      const FailureOutcome& y = single.outcomes[i];
      EXPECT_EQ(x.failed_server, y.failed_server);
      EXPECT_EQ(x.affected_apps, y.affected_apps);
      EXPECT_EQ(x.surviving_servers, y.surviving_servers);
      EXPECT_EQ(x.supported, y.supported);
      EXPECT_EQ(x.servers_used, y.servers_used);
      EXPECT_EQ(x.total_required_capacity, y.total_required_capacity);
      EXPECT_EQ(x.assignment, y.assignment);
    }

    const MultiFailoverReport pairs_t = planner.plan_concurrent(cfg, 2);
    expect_same_consolidation(pairs_t.normal, pairs.normal);
    EXPECT_EQ(pairs_t.unsupported, pairs.unsupported);
    ASSERT_EQ(pairs_t.outcomes.size(), pairs.outcomes.size());
    for (std::size_t i = 0; i < pairs.outcomes.size(); ++i) {
      const MultiFailureOutcome& x = pairs_t.outcomes[i];
      const MultiFailureOutcome& y = pairs.outcomes[i];
      EXPECT_EQ(x.failed_servers, y.failed_servers);
      EXPECT_EQ(x.affected_apps, y.affected_apps);
      EXPECT_EQ(x.supported, y.supported);
      EXPECT_EQ(x.servers_used, y.servers_used);
      EXPECT_EQ(x.total_required_capacity, y.total_required_capacity);
    }
  }
}

}  // namespace
}  // namespace ropus::failover
