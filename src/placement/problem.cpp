#include "placement/problem.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/error.h"
#include "obs/metrics.h"
#include "placement/baselines.h"
#include "slo/kernel.h"

namespace ropus::placement {

namespace {
std::vector<const qos::AllocationTrace*> cpu_of(
    std::span<const qos::AllocationTrace> workloads) {
  std::vector<const qos::AllocationTrace*> out;
  out.reserve(workloads.size());
  for (const qos::AllocationTrace& w : workloads) out.push_back(&w);
  return out;
}

std::vector<const qos::AllocationTrace*> cpu_of(
    std::span<const qos::WorkloadAllocations> workloads) {
  std::vector<const qos::AllocationTrace*> out;
  out.reserve(workloads.size());
  for (const qos::WorkloadAllocations& w : workloads) out.push_back(&w.cpu());
  return out;
}
}  // namespace

PlacementProblem::PlacementProblem(
    std::span<const qos::AllocationTrace> workloads,
    std::vector<sim::ServerSpec> servers, qos::CosCommitment cos2)
    : PlacementProblem(cpu_of(workloads), {}, std::move(servers), cos2,
                       std::make_shared<Memo>()) {}

PlacementProblem::PlacementProblem(
    std::span<const qos::WorkloadAllocations> workloads,
    std::vector<sim::ServerSpec> servers, qos::CosCommitment cos2)
    : PlacementProblem(cpu_of(workloads), workloads, std::move(servers), cos2,
                       std::make_shared<Memo>()) {}

PlacementProblem::PlacementProblem(const PlacementProblem& base,
                                   std::vector<sim::ServerSpec> servers)
    : PlacementProblem(base.cpu_, base.attributed_, std::move(servers),
                       base.cos2_, base.memo_) {}

PlacementProblem::PlacementProblem(
    std::vector<const qos::AllocationTrace*> cpu,
    std::span<const qos::WorkloadAllocations> attributed,
    std::vector<sim::ServerSpec> servers, qos::CosCommitment cos2,
    std::shared_ptr<Memo> memo)
    : cpu_(std::move(cpu)),
      attributed_(attributed),
      servers_(std::move(servers)),
      cos2_(cos2),
      calendar_(cpu_.empty() ? trace::Calendar(1, 5)
                             : cpu_.front()->calendar()),
      memo_(std::move(memo)) {
  ROPUS_REQUIRE(!cpu_.empty(), "placement needs at least one workload");
  ROPUS_REQUIRE(!servers_.empty(), "placement needs at least one server");
  cos2_.validate();
  for (const sim::ServerSpec& s : servers_) s.validate();
  for (const qos::AllocationTrace* w : cpu_) {
    ROPUS_REQUIRE(w->calendar() == calendar_,
                  "all workloads must share one calendar");
  }
}

std::optional<Assignment> PlacementProblem::greedy_seed() const {
  return first_fit_decreasing(*this);
}

double PlacementProblem::total_peak_allocation() const {
  double total = 0.0;
  for (const qos::AllocationTrace* w : cpu_) total += w->peak_allocation();
  return total;
}

// --------------------------------------------------------------------------
// The shared memo. Hash and equality are transparent over borrowed
// (span, cpus) keys so the delta context can look up a server's hosted set
// in place — no copy, no sort — and only a miss allocates the owned key.

namespace {
std::size_t hash_ids(std::span<const std::size_t> ids, std::size_t cpus) {
  std::size_t h = 0x9e3779b97f4a7c15ULL ^ cpus;
  for (std::size_t id : ids) {
    h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}
}  // namespace

std::size_t PlacementProblem::MemoHash::operator()(const MemoKey& k) const {
  return hash_ids(k.ids, k.cpus);
}
std::size_t PlacementProblem::MemoHash::operator()(
    const std::pair<std::span<const std::size_t>, std::size_t>& k) const {
  return hash_ids(k.first, k.second);
}
bool PlacementProblem::MemoEq::operator()(const MemoKey& a,
                                          const MemoKey& b) const {
  return a.cpus == b.cpus && a.ids == b.ids;
}
bool PlacementProblem::MemoEq::operator()(
    const std::pair<std::span<const std::size_t>, std::size_t>& a,
    const MemoKey& b) const {
  return a.second == b.cpus && std::ranges::equal(a.first, b.ids);
}

bool PlacementProblem::memo_find(std::span<const std::size_t> sorted_ids,
                                 std::size_t cpus, ServerVerdict& out) const {
  const std::shared_lock<std::shared_mutex> lock(memo_->mutex);
  const auto it = memo_->map.find(std::pair(sorted_ids, cpus));
  if (it == memo_->map.end()) return false;
  out = it->second;
  return true;
}

void PlacementProblem::memo_store(std::span<const std::size_t> sorted_ids,
                                  std::size_t cpus, ServerVerdict v) const {
  MemoKey key{{sorted_ids.begin(), sorted_ids.end()}, cpus};
  const std::unique_lock<std::shared_mutex> lock(memo_->mutex);
  memo_->map.emplace(std::move(key), v);
}

ServerVerdict PlacementProblem::server_required_capacity(
    std::vector<std::size_t> workload_ids,
    const sim::ServerSpec& server) const {
  std::sort(workload_ids.begin(), workload_ids.end());
  ServerVerdict v;
  if (memo_find(workload_ids, server.cpus, v)) return judged(v, server);
  std::vector<const qos::AllocationTrace*> hosted;
  hosted.reserve(workload_ids.size());
  for (std::size_t id : workload_ids) {
    ROPUS_REQUIRE(id < cpu_.size(), "unknown workload id");
    hosted.push_back(cpu_[id]);
  }
  const sim::Aggregate agg = sim::aggregate_workloads(hosted, calendar_);
  const sim::RequiredCapacity rc =
      sim::required_capacity(agg, server.capacity(), cos2_);
  v = ServerVerdict{rc.fits, rc.capacity, rc.binding, {}};
  // Attribute peaks: the per-slot sum in ascending-id order, as the engine
  // keeps it.
  if (!attributed_.empty()) {
    std::vector<double> total(calendar_.size());
    for (const trace::Attribute a : trace::kAllAttributes) {
      if (a == trace::Attribute::kCpu) continue;
      std::fill(total.begin(), total.end(), 0.0);
      for (const std::size_t id : workload_ids) {
        const trace::DemandTrace* t = attributed_[id].attribute(a);
        if (t == nullptr) continue;
        for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*t)[i];
      }
      double& peak = v.peaks[trace::attribute_index(a)];
      for (const double x : total) peak = std::max(peak, x);
    }
  }
  memo_store(workload_ids, server.cpus, v);
  return judged(v, server);
}

double PlacementProblem::utilization_score(double utilization,
                                           std::size_t cpus) {
  ROPUS_REQUIRE(utilization >= 0.0 && utilization <= 1.0,
                "utilization must be in [0, 1]");
  return std::pow(utilization, 2.0 * static_cast<double>(cpus));
}

ServerVerdict PlacementProblem::judged(ServerVerdict v,
                                       const sim::ServerSpec& spec) {
  for (const trace::Attribute a : trace::kAllAttributes) {
    if (a == trace::Attribute::kCpu) continue;
    if (v.peaks[trace::attribute_index(a)] >
        spec.capacity(a) + slo::kCapacityEps) {
      v.fits = false;
    }
  }
  return v;
}

void PlacementProblem::score_server(ServerEvaluation& se,
                                    const ServerVerdict& memo,
                                    const sim::ServerSpec& spec,
                                    PlacementEvaluation& ev) {
  const ServerVerdict v = judged(memo, spec);
  se.used = true;
  ev.servers_used += 1;
  se.fits = v.fits;
  se.binding = v.binding;
  if (!v.fits) {
    ev.feasible = false;
    se.score = -static_cast<double>(se.workloads.size());
    ev.score += se.score;
    return;
  }
  se.required_capacity = v.capacity;
  // Scoring utilization: the tightest attribute on this server, so a
  // memory-bound box does not masquerade as underused.
  double u = v.capacity / spec.capacity();
  for (const trace::Attribute a : trace::kAllAttributes) {
    const double cap = spec.capacity(a);
    if (a == trace::Attribute::kCpu || cap <= 0.0) continue;
    u = std::max(u, v.peaks[trace::attribute_index(a)] / cap);
  }
  se.utilization = std::min(1.0, u);
  se.score = utilization_score(se.utilization, spec.cpus);
  ev.score += se.score;
  ev.total_required_capacity += v.capacity;
}

PlacementEvaluation PlacementProblem::evaluate(const Assignment& a) const {
  validate_assignment(a, cpu_.size(), servers_.size());
  PlacementEvaluation ev;
  ev.servers.resize(servers_.size());
  ev.feasible = true;

  const auto by_server = workloads_by_server(a, servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerEvaluation& se = ev.servers[s];
    se.workloads = by_server[s];
    if (se.workloads.empty()) {
      se.score = 1.0;  // idle server: reward for freeing it entirely
      ev.score += se.score;
      continue;
    }
    // The judged verdict scores like the memo's: judging is idempotent.
    const ServerVerdict v = server_required_capacity(se.workloads, servers_[s]);
    score_server(se, v, servers_[s], ev);
  }
  return ev;
}

// --------------------------------------------------------------------------
// The delta context.

std::unique_ptr<DeltaPlacementContext> PlacementProblem::acquire_context()
    const {
  {
    const std::lock_guard<std::mutex> lock(context_pool_mutex_);
    if (!context_pool_.empty()) {
      std::unique_ptr<DeltaPlacementContext> ctx =
          std::move(context_pool_.back());
      context_pool_.pop_back();
      return ctx;
    }
  }
  return std::unique_ptr<DeltaPlacementContext>(
      new DeltaPlacementContext(*this));
}

void PlacementProblem::release_context(
    std::unique_ptr<DeltaPlacementContext> ctx) const {
  if (!ctx) return;
  const std::lock_guard<std::mutex> lock(context_pool_mutex_);
  context_pool_.push_back(std::move(ctx));
}

namespace {
std::vector<double> capacities_of(const std::vector<sim::ServerSpec>& pool) {
  std::vector<double> out;
  out.reserve(pool.size());
  for (const sim::ServerSpec& s : pool) out.push_back(s.capacity());
  return out;
}

/// The engine's verdict as the memo stores it.
ServerVerdict memo_value(const sim::IncrementalEvaluator::Verdict& v) {
  return ServerVerdict{v.cpu.fits, v.cpu.capacity, v.cpu.binding, v.peaks};
}
}  // namespace

DeltaPlacementContext::DeltaPlacementContext(const PlacementProblem& problem)
    : problem_(problem),
      engine_(problem.calendar_, problem.cos2_,
              capacities_of(problem.servers_)) {
  static obs::Counter& builds = obs::counter("placement.delta_context.builds");
  builds.add(1);
  for (std::size_t id = 0; id < problem.cpu_.size(); ++id) {
    if (problem.attributed_.empty()) {
      engine_.register_workload(id, *problem.cpu_[id]);
    } else {
      engine_.register_workload(id, problem.attributed_[id]);
    }
  }
}

PlacementEvaluation DeltaPlacementContext::evaluate(const Assignment& a) {
  validate_assignment(a, problem_.cpu_.size(), problem_.servers_.size());
  // Diff against the engine's current hosting: only changed workloads move,
  // so only their source and destination servers need new verdicts.
  for (std::size_t w = 0; w < a.size(); ++w) {
    const std::size_t host = engine_.host_of(w);
    if (host == a[w]) continue;
    if (host == sim::IncrementalEvaluator::npos) {
      engine_.add(w, a[w]);
    } else {
      engine_.move(w, a[w]);
    }
  }

  PlacementEvaluation ev;
  ev.servers.resize(problem_.servers_.size());
  ev.feasible = true;
  for (std::size_t s = 0; s < problem_.servers_.size(); ++s) {
    ServerEvaluation& se = ev.servers[s];
    const std::span<const std::size_t> hosted = engine_.hosted(s);
    se.workloads.assign(hosted.begin(), hosted.end());
    if (hosted.empty()) {
      se.score = 1.0;
      ev.score += se.score;
      continue;
    }
    const sim::ServerSpec& spec = problem_.servers_[s];
    ServerVerdict v;
    if (!problem_.memo_find(hosted, spec.cpus, v)) {
      v = memo_value(engine_.verdict(s));
      problem_.memo_store(hosted, spec.cpus, v);
    }
    PlacementProblem::score_server(se, v, spec, ev);
  }
  return ev;
}

ServerVerdict DeltaPlacementContext::probe(std::size_t server,
                                           std::size_t workload) {
  const std::span<const std::size_t> hosted = engine_.hosted(server);
  probe_key_.clear();
  probe_key_.reserve(hosted.size() + 1);
  const auto split = std::ranges::lower_bound(hosted, workload);
  probe_key_.insert(probe_key_.end(), hosted.begin(), split);
  probe_key_.push_back(workload);
  probe_key_.insert(probe_key_.end(), split, hosted.end());

  const sim::ServerSpec& spec = problem_.servers_[server];
  ServerVerdict v;
  if (!problem_.memo_find(probe_key_, spec.cpus, v)) {
    v = memo_value(engine_.probe(server, workload));
    problem_.memo_store(probe_key_, spec.cpus, v);
  }
  return PlacementProblem::judged(v, spec);
}

void DeltaPlacementContext::add(std::size_t workload, std::size_t server) {
  engine_.add(workload, server);
}

void DeltaPlacementContext::remove(std::size_t workload) {
  engine_.remove(workload);
}

void DeltaPlacementContext::clear() {
  for (std::size_t w = 0; w < problem_.cpu_.size(); ++w) {
    if (engine_.host_of(w) != sim::IncrementalEvaluator::npos) {
      engine_.remove(w);
    }
  }
}

}  // namespace ropus::placement
