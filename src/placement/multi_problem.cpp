#include "placement/multi_problem.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>

#include "common/error.h"
#include "placement/problem.h"

namespace ropus::placement {

MultiPlacementProblem::MultiPlacementProblem(
    std::span<const qos::WorkloadAllocations> workloads,
    std::vector<sim::MultiServerSpec> servers, qos::CosCommitment cos2,
    double capacity_tolerance)
    : workloads_(workloads),
      servers_(std::move(servers)),
      cos2_(cos2),
      tolerance_(capacity_tolerance),
      calendar_(workloads.empty() ? trace::Calendar(1, 5)
                                  : workloads.front().calendar()) {
  ROPUS_REQUIRE(!workloads_.empty(), "placement needs at least one workload");
  ROPUS_REQUIRE(!servers_.empty(), "placement needs at least one server");
  ROPUS_REQUIRE(tolerance_ > 0.0, "capacity tolerance must be > 0");
  cos2_.validate();
  for (const sim::MultiServerSpec& s : servers_) s.validate();
  for (const qos::WorkloadAllocations& w : workloads_) {
    ROPUS_REQUIRE(w.calendar() == calendar_,
                  "all workloads must share one calendar");
  }
}

std::size_t MultiPlacementProblem::CacheKeyHash::operator()(
    const CacheKey& k) const {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t id : k.workload_ids) {
    h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  for (double c : k.capacities) {
    std::size_t bits = 0;
    static_assert(sizeof(bits) == sizeof(c));
    std::memcpy(&bits, &c, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

sim::MultiRequiredCapacity MultiPlacementProblem::server_required_capacity(
    std::vector<std::size_t> workload_ids,
    const sim::MultiServerSpec& server) const {
  std::sort(workload_ids.begin(), workload_ids.end());
  CacheKey key{std::move(workload_ids), {}};
  for (trace::Attribute a : trace::kAllAttributes) {
    key.capacities[trace::attribute_index(a)] = server.capacity(a);
  }
  {
    const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      return it->second;
    }
  }
  std::vector<const qos::WorkloadAllocations*> hosted;
  hosted.reserve(key.workload_ids.size());
  for (std::size_t id : key.workload_ids) {
    ROPUS_REQUIRE(id < workloads_.size(), "unknown workload id");
    hosted.push_back(&workloads_[id]);
  }
  sim::MultiRequiredCapacity rc =
      sim::multi_required_capacity(hosted, server, cos2_, tolerance_);
  // Duplicate concurrent computes resolve to the first insert; the values
  // are identical either way.
  const std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  cache_.emplace(std::move(key), rc);
  return rc;
}

double MultiPlacementProblem::total_peak_allocation() const {
  double total = 0.0;
  for (const qos::WorkloadAllocations& w : workloads_) {
    total += w.cpu().peak_allocation();
  }
  return total;
}

PlacementEvaluation MultiPlacementProblem::evaluate(
    const Assignment& a) const {
  validate_assignment(a, workloads_.size(), servers_.size());
  PlacementEvaluation ev;
  ev.servers.resize(servers_.size());
  ev.feasible = true;

  const auto by_server = workloads_by_server(a, servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerEvaluation& se = ev.servers[s];
    se.workloads = by_server[s];
    if (se.workloads.empty()) {
      se.score = 1.0;
      ev.score += se.score;
      continue;
    }
    se.used = true;
    ev.servers_used += 1;
    const sim::MultiRequiredCapacity rc =
        server_required_capacity(se.workloads, servers_[s]);
    se.fits = rc.fits;
    se.binding = rc.cpu.binding;
    if (!rc.fits) {
      ev.feasible = false;
      se.score = -static_cast<double>(se.workloads.size());
      ev.score += se.score;
      continue;
    }
    se.required_capacity = rc.cpu.capacity;
    // Scoring utilization: the tightest attribute on this server, so a
    // memory-bound box does not masquerade as underused.
    double u = 0.0;
    for (trace::Attribute attr : trace::kAllAttributes) {
      const double cap = servers_[s].capacity(attr);
      if (cap <= 0.0) continue;
      u = std::max(u, rc.required[trace::attribute_index(attr)] / cap);
    }
    se.utilization = std::min(1.0, u);
    se.score =
        PlacementProblem::utilization_score(se.utilization, servers_[s].cpus);
    ev.score += se.score;
    ev.total_required_capacity += rc.cpu.capacity;
  }
  return ev;
}

std::optional<Assignment> MultiPlacementProblem::greedy_seed() const {
  // First-fit-decreasing by peak CPU allocation, with full multi-attribute
  // feasibility checks.
  std::vector<std::size_t> order(workloads_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t x, std::size_t y) {
                     return workloads_[x].cpu().peak_allocation() >
                            workloads_[y].cpu().peak_allocation();
                   });
  std::vector<std::vector<std::size_t>> hosted(servers_.size());
  Assignment result(workloads_.size());
  for (std::size_t w : order) {
    bool placed = false;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      std::vector<std::size_t> trial = hosted[s];
      trial.push_back(w);
      if (server_required_capacity(trial, servers_[s]).fits) {
        hosted[s].push_back(w);
        result[w] = s;
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  return result;
}

}  // namespace ropus::placement
