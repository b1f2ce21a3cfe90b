// plan-26: the paper's exercise (§VI-B/§VI-C). 26 apps x 4 weeks on
// 13 x 16-way servers. All six Table I QoS cases are translated and
// consolidated, then FailurePlanner::plan runs the single-failure sweep
// (normal = case 4, failure = case 5).
//
// The genetic budget is fixed (population 16, exactly 8 generations: no
// stagnation stop, so every search does the same number of rounds). A pass
// takes ~5 s, so a run holds several. The inputs are fixed, so the answers
// are too: every pass must find the servers per case and the spare verdict
// in kServersUsed / kSpareNeeded, and repeat the first pass digest for
// digest. verify() re-scores the first pass's assignments through the
// batch evaluator, an independent path.
#include <algorithm>
#include <iterator>
#include <optional>

#include "failover/planner.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "qos/allocation.h"

namespace perfbench {
namespace {

using namespace ropus;

struct Case {
  int id;
  double m_degr;  // percent of observations allowed to degrade
  double theta;
  std::optional<double> t_degr_minutes;
};

// Table I of the paper.
const Case kCases[] = {{1, 0.0, 0.60, std::nullopt}, {2, 3.0, 0.60, 30.0},
                       {3, 3.0, 0.60, std::nullopt}, {4, 0.0, 0.95, std::nullopt},
                       {5, 3.0, 0.95, 30.0},         {6, 3.0, 0.95, std::nullopt}};
constexpr std::size_t kNumCases = std::size(kCases);
constexpr double kDeadlineMinutes = 60.0;
constexpr std::size_t kWeeks = 4;
constexpr std::size_t kServers = 13;
// The planner's run time is a chaotic function of its inputs: another
// fleet, or other search seeds, moves the memo misses and hence a pass by
// 15-30%. So the workload always runs the paper's exercise — the
// case-study traces at the reproduction's seed and Table I's search seeds —
// and only host noise is left between runs.
constexpr std::uint64_t kFleetSeed = 2006;

// The exercise's answers: servers used by cases 1-6, and the spare verdict.
constexpr std::size_t kServersUsed[kNumCases] = {8, 7, 7, 8, 7, 7};
constexpr bool kSpareNeeded = false;

placement::ConsolidationConfig search_config(std::uint64_t seed) {
  placement::ConsolidationConfig cfg;
  cfg.genetic.seed = seed;
  cfg.genetic.population = 16;
  cfg.genetic.max_generations = 8;
  cfg.genetic.stagnation_limit = 8;
  return cfg;
}

std::uint64_t digest_of(const placement::ConsolidationReport& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.feasible))
      .add(static_cast<std::uint64_t>(r.servers_used))
      .add(r.total_required_capacity);
  for (const std::size_t s : r.assignment) d.add(static_cast<std::uint64_t>(s));
  return d.value();
}

double required_capacity_sum() {
  static obs::Histogram& h = obs::histogram("sim.required_capacity.seconds");
  return h.snapshot().sum;
}

class Plan26 final : public Workload {
 public:
  explicit Plan26(bool corrupt_reference)
      : demands_(generate_fleet(replica_profiles(1), kWeeks, kFleetSeed)),
        pool_(sim::homogeneous_pool(kServers, 16)),
        spare_needed_(kSpareNeeded) {
    for (const trace::DemandTrace& d : demands_) {
      qos::ApplicationQos q;
      q.app_name = d.name();
      q.normal = paper_requirement(100.0, std::nullopt);  // case 4
      q.failure = paper_requirement(97.0, 30.0);          // case 5
      app_qos_.push_back(std::move(q));
    }
    planner_.emplace(demands_, app_qos_, qos::PoolCommitments{}, pool_);
    std::copy(std::begin(kServersUsed), std::end(kServersUsed),
              std::begin(servers_used_));
    if (corrupt_reference) {
      for (std::size_t& n : servers_used_) n += 1;
      spare_needed_ = !spare_needed_;
    }
  }

  PassTime pass(Checks& checks, std::vector<double>& verdict_ms) override {
    const obs::ScopedSpan root("bench.pass");
    const double wall0 = wall_seconds();
    const double cpu0 = cpu_seconds();
    Output out = run();
    const PassTime time{wall_seconds() - wall0, cpu_seconds() - cpu0};

    check_answers(out, checks);
    check_repeat(out, checks);
    // The operator's verdict: the servers one QoS case needs.
    verdict_ms.insert(verdict_ms.end(), out.consolidate_ms.begin(),
                      out.consolidate_ms.end());
    consolidate_ms_.insert(consolidate_ms_.end(), out.consolidate_ms.begin(),
                           out.consolidate_ms.end());
    failover_s_.push_back(out.failover_s);
    cpu_s_.push_back(time.cpu_s);
    layers_ = std::move(out.layers);
    return time;
  }

  /// The batch evaluator re-scores every reported assignment from scratch
  /// (no memo, no delta engine): it must agree on feasibility and server
  /// count with what the search reported. --corrupt-reference took effect
  /// at construction, on the answers every pass is checked against.
  void verify(Checks& checks, bool /*corrupt_reference*/) override {
    for (std::size_t i = 0; i < kNumCases; ++i) {
      const Case& c = kCases[i];
      const qos::CosCommitment cos2{c.theta, kDeadlineMinutes};
      const auto allocations = qos::build_allocations(
          demands_, paper_requirement(100.0 - c.m_degr, c.t_degr_minutes), cos2);
      const placement::PlacementProblem problem(allocations, pool_, cos2);
      const placement::ConsolidationReport& r = reference_->reports[i];
      const placement::PlacementEvaluation ev = problem.evaluate(r.assignment);
      checks.op(r.feasible && ev.feasible && ev.servers_used == r.servers_used,
                "case " + std::to_string(c.id) + " fails the batch re-evaluation");
    }
  }

  std::vector<Metric> report() const override {
    const Output& first = *reference_;
    std::vector<Metric> out{
        {"consolidate_s", median(consolidate_ms_) / 1000.0, "s"},
        {"failover_s", median(failover_s_), "s"},
        {"plan_cpu_s", median(cpu_s_), "s"},
        {"spare_needed", first.spare_needed ? 1.0 : 0.0, "bool"}};
    for (std::size_t i = 0; i < kNumCases; ++i) {
      out.push_back({"case" + std::to_string(kCases[i].id) + ".servers",
                     static_cast<double>(first.reports[i].servers_used),
                     "count"});
    }
    return out;
  }

  LayerValues layers() const override { return layers_; }

 private:
  struct Output {
    std::vector<std::uint64_t> digests;  // one per case, then the sweep
    std::vector<placement::ConsolidationReport> reports;  // one per case
    std::vector<double> consolidate_ms;  // verdict latency per case
    double failover_s = 0.0;
    bool spare_needed = false;
    bool spare_consistent = false;
    LayerValues layers;
  };
  /// Compares a pass with the exercise's answers.
  void check_answers(const Output& out, Checks& checks) const {
    for (std::size_t i = 0; i < kNumCases; ++i) {
      const placement::ConsolidationReport& r = out.reports[i];
      checks.op(r.feasible && r.servers_used == servers_used_[i],
                "case " + std::to_string(kCases[i].id) + " used " +
                    std::to_string(r.servers_used) + " servers, expected " +
                    std::to_string(servers_used_[i]));
    }
    checks.op(out.spare_needed == spare_needed_,
              "spare verdict differs from the reference");
    checks.op(out.spare_consistent,
              "spare verdict disagrees with the per-failure outcomes");
  }
  /// Keeps the first pass as the reference; every later pass must match it.
  void check_repeat(const Output& out, Checks& checks) {
    if (!reference_) {
      reference_ = out;
      return;
    }
    for (std::size_t i = 0; i < out.digests.size(); ++i) {
      checks.op(out.digests[i] == reference_->digests[i],
                (i < kNumCases
                     ? "case " + std::to_string(kCases[i].id) + " consolidation"
                     : std::string("failure sweep")) +
                    " differs in a later pass");
    }
  }

  /// Translates and consolidates every case, then runs the failure sweep.
  Output run() {
    Output out;
    for (const Case& c : kCases) {
      const double t0 = wall_seconds();
      const qos::CosCommitment cos2{c.theta, kDeadlineMinutes};
      std::vector<qos::AllocationTrace> allocations;
      {
        const obs::ScopedSpan span("bench.qos.build_allocations");
        allocations = qos::build_allocations(
            demands_, paper_requirement(100.0 - c.m_degr, c.t_degr_minutes),
            cos2);
      }
      const placement::PlacementProblem problem(allocations, pool_, cos2);
      const double rc0 = required_capacity_sum();
      const double t1 = wall_seconds();
      placement::ConsolidationReport report;
      {
        const obs::ScopedSpan span("bench.placement.consolidate");
        report = placement::consolidate(
            problem, search_config(static_cast<std::uint64_t>(c.id)));
      }
      const double t2 = wall_seconds();
      out.layers["placement.consolidate_s"] += t2 - t1;
      out.layers["placement.self_s"] +=
          (t2 - t1) - (required_capacity_sum() - rc0);
      out.layers["placement.memo_entries"] +=
          static_cast<double>(problem.cache_entries());
      out.consolidate_ms.push_back(1000.0 * (t2 - t0));
      out.digests.push_back(digest_of(report));
      out.reports.push_back(std::move(report));
    }

    const double t0 = wall_seconds();
    std::size_t swept = 0;
    {
      const obs::ScopedSpan span("bench.failover.plan");
      out.digests.push_back(sweep(out, swept));
    }
    out.failover_s = wall_seconds() - t0;
    out.layers["failover.plan_s"] = out.failover_s;
    out.layers["failover.failures_swept"] = static_cast<double>(swept);
    out.layers["failover.per_failure_s"] =
        swept == 0 ? 0.0 : out.failover_s / static_cast<double>(swept);
    return out;
  }

  /// Runs the single-failure sweep (normal = case 4, failure = case 5
  /// search seeds); returns its digest.
  std::uint64_t sweep(Output& out, std::size_t& swept) {
    failover::PlannerConfig config;
    config.normal = search_config(4);
    config.failure = search_config(5);
    const failover::FailoverReport fr = planner_->plan(config);
    Digest d;
    bool any_unsupported = false;
    d.add(digest_of(fr.normal));
    for (const failover::FailureOutcome& o : fr.outcomes) {
      any_unsupported = any_unsupported || !o.supported;
      d.add(static_cast<std::uint64_t>(o.failed_server))
          .add(static_cast<std::uint64_t>(o.supported))
          .add(static_cast<std::uint64_t>(o.servers_used))
          .add(o.total_required_capacity);
    }
    out.spare_needed = fr.spare_needed;
    out.spare_consistent = fr.spare_needed == any_unsupported &&
                           fr.outcomes.size() == fr.active_servers.size();
    swept = fr.outcomes.size();
    d.add(static_cast<std::uint64_t>(out.spare_needed));
    return d.value();
  }

  std::vector<trace::DemandTrace> demands_;
  std::vector<sim::ServerSpec> pool_;
  std::vector<qos::ApplicationQos> app_qos_;
  std::optional<failover::FailurePlanner> planner_;
  std::size_t servers_used_[kNumCases];
  bool spare_needed_;

  std::optional<Output> reference_;  // the first pass
  std::vector<double> consolidate_ms_;
  std::vector<double> failover_s_;
  std::vector<double> cpu_s_;
  LayerValues layers_;
};

}  // namespace

std::unique_ptr<Workload> make_plan26(const Options& options) {
  return std::make_unique<Plan26>(options.corrupt_reference);
}

}  // namespace perfbench
