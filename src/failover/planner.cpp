#include "failover/planner.h"

#include <algorithm>

#include "common/logging.h"

namespace ropus::failover {

FailurePlanner::FailurePlanner(std::span<const trace::DemandTrace> demands,
                               std::span<const qos::ApplicationQos> qos,
                               qos::PoolCommitments commitments,
                               std::vector<sim::ServerSpec> pool)
    : demands_(demands),
      qos_(qos),
      commitments_(commitments),
      pool_(std::move(pool)) {
  ROPUS_REQUIRE(!demands_.empty(), "planner needs at least one workload");
  ROPUS_REQUIRE(demands_.size() == qos_.size(),
                "need one ApplicationQos per demand trace");
  ROPUS_REQUIRE(!pool_.empty(), "planner needs a server pool");
  commitments_.validate();
  for (const qos::ApplicationQos& q : qos_) q.validate();
  for (const sim::ServerSpec& s : pool_) s.validate();
  for (const trace::DemandTrace& d : demands_) {
    ROPUS_REQUIRE(d.calendar() == demands_.front().calendar(),
                  "all demand traces must share one calendar");
  }
}

std::vector<qos::AllocationTrace> FailurePlanner::build_allocations(
    bool failure_mode) const {
  std::vector<qos::AllocationTrace> allocations;
  allocations.reserve(demands_.size());
  for (std::size_t a = 0; a < demands_.size(); ++a) {
    const qos::Requirement& req =
        failure_mode ? qos_[a].failure : qos_[a].normal;
    const qos::Translation tr =
        qos::translate(demands_[a], req, commitments_.cos2);
    allocations.emplace_back(demands_[a], tr);
  }
  return allocations;
}

placement::ConsolidationReport FailurePlanner::consolidate_survivors(
    const placement::ConsolidationReport& normal,
    const placement::PlacementProblem& failure_problem,
    const std::vector<std::size_t>& active,
    const std::vector<std::size_t>& failed, const PlannerConfig& config,
    std::vector<std::size_t>* surviving_servers) const {
  surviving_servers->clear();
  for (std::size_t s : active) {
    if (!std::binary_search(failed.begin(), failed.end(), s)) {
      surviving_servers->push_back(s);
    }
  }
  ROPUS_ASSERT(!surviving_servers->empty(), "no survivors to consolidate on");
  std::vector<sim::ServerSpec> survivors;
  survivors.reserve(surviving_servers->size());
  for (std::size_t s : *surviving_servers) survivors.push_back(pool_[s]);

  // The whole fleet runs failure-mode QoS until the repair completes (the
  // case-study policy), so every scenario places the same allocations and
  // its problem shares `failure_problem`'s verdict memo.
  const placement::PlacementProblem problem(failure_problem,
                                            std::move(survivors));

  // Start from the normal placement restricted to the survivors; displaced
  // applications are spread round-robin and the search repairs from there.
  placement::Assignment initial(demands_.size());
  std::size_t spread = 0;
  for (std::size_t a = 0; a < demands_.size(); ++a) {
    const std::size_t normal_server = normal.assignment[a];
    const auto it = std::find(surviving_servers->begin(),
                              surviving_servers->end(), normal_server);
    if (it != surviving_servers->end()) {
      initial[a] =
          static_cast<std::size_t>(it - surviving_servers->begin());
    } else {
      initial[a] = spread++ % surviving_servers->size();
    }
  }
  return placement::consolidate(problem, initial, config.failure);
}

FailoverReport FailurePlanner::plan(const PlannerConfig& config) const {
  FailoverReport report;

  // Normal mode: everyone under normal QoS, consolidate on the full pool.
  // Each app is translated once per QoS mode; every failure scenario reuses
  // the failure-mode set.
  const std::vector<qos::AllocationTrace> normal_allocs =
      build_allocations(false);
  const placement::PlacementProblem normal_problem(normal_allocs, pool_,
                                                   commitments_.cos2);
  report.normal = placement::consolidate(normal_problem, config.normal);
  if (!report.normal.feasible) {
    ROPUS_LOG(kWarn) << "normal-mode consolidation infeasible; "
                        "failure sweep skipped";
    report.spare_needed = true;
    return report;
  }

  for (std::size_t s = 0; s < pool_.size(); ++s) {
    if (!report.normal.evaluation.servers[s].workloads.empty()) {
      report.active_servers.push_back(s);
    }
  }

  // A one-server fleet has no survivors to absorb a failure.
  if (report.active_servers.size() < 2) {
    report.spare_needed = true;
    for (std::size_t s : report.active_servers) {
      FailureOutcome outcome;
      outcome.failed_server = s;
      outcome.affected_apps = report.normal.evaluation.servers[s].workloads;
      outcome.supported = false;
      report.outcomes.push_back(std::move(outcome));
    }
    return report;
  }

  const std::vector<qos::AllocationTrace> failure_allocs =
      build_allocations(true);
  const placement::PlacementProblem failure_problem(failure_allocs, pool_,
                                                    commitments_.cos2);
  for (std::size_t failed : report.active_servers) {
    FailureOutcome outcome;
    outcome.failed_server = failed;
    outcome.affected_apps = report.normal.evaluation.servers[failed].workloads;

    const placement::ConsolidationReport cr = consolidate_survivors(
        report.normal, failure_problem, report.active_servers, {failed},
        config, &outcome.surviving_servers);
    outcome.supported = cr.feasible;
    outcome.servers_used = cr.servers_used;
    outcome.total_required_capacity = cr.total_required_capacity;
    outcome.assignment = cr.assignment;
    if (!outcome.supported) report.spare_needed = true;
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

MultiFailoverReport FailurePlanner::plan_concurrent(
    const PlannerConfig& config, std::size_t concurrent_failures,
    std::size_t max_subsets) const {
  ROPUS_REQUIRE(concurrent_failures >= 1,
                "need at least one concurrent failure");
  MultiFailoverReport report;
  report.concurrent_failures = concurrent_failures;

  const std::vector<qos::AllocationTrace> normal_allocs =
      build_allocations(false);
  const placement::PlacementProblem normal_problem(normal_allocs, pool_,
                                                   commitments_.cos2);
  report.normal = placement::consolidate(normal_problem, config.normal);
  if (!report.normal.feasible) {
    report.unsupported = 1;
    return report;
  }
  const std::vector<qos::AllocationTrace> failure_allocs =
      build_allocations(true);
  const placement::PlacementProblem failure_problem(failure_allocs, pool_,
                                                    commitments_.cos2);
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    if (!report.normal.evaluation.servers[s].workloads.empty()) {
      report.active_servers.push_back(s);
    }
  }
  ROPUS_REQUIRE(concurrent_failures < report.active_servers.size(),
                "cannot lose every active server at once");

  // Enumerate k-subsets of active servers in lexicographic order.
  const std::size_t n = report.active_servers.size();
  std::vector<std::size_t> pick(concurrent_failures);
  for (std::size_t i = 0; i < concurrent_failures; ++i) pick[i] = i;
  while (true) {
    if (max_subsets != 0 && report.outcomes.size() >= max_subsets) break;

    MultiFailureOutcome outcome;
    for (std::size_t i : pick) {
      outcome.failed_servers.push_back(report.active_servers[i]);
    }
    for (std::size_t s : outcome.failed_servers) {
      const auto& apps = report.normal.evaluation.servers[s].workloads;
      outcome.affected_apps.insert(outcome.affected_apps.end(), apps.begin(),
                                   apps.end());
    }
    std::vector<std::size_t> survivors;
    const placement::ConsolidationReport cr = consolidate_survivors(
        report.normal, failure_problem, report.active_servers,
        outcome.failed_servers, config, &survivors);
    outcome.supported = cr.feasible;
    outcome.servers_used = cr.servers_used;
    outcome.total_required_capacity = cr.total_required_capacity;
    if (!outcome.supported) report.unsupported += 1;
    report.outcomes.push_back(std::move(outcome));

    // Advance to the next k-subset.
    std::size_t i = concurrent_failures;
    while (i > 0 && pick[i - 1] == n - concurrent_failures + (i - 1)) --i;
    if (i == 0) break;
    pick[i - 1] += 1;
    for (std::size_t j = i; j < concurrent_failures; ++j) {
      pick[j] = pick[j - 1] + 1;
    }
  }
  return report;
}

}  // namespace ropus::failover
