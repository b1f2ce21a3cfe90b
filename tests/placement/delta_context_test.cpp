// DeltaPlacementContext vs the batch oracle: a context's evaluate() must be
// bit-identical to PlacementProblem::evaluate() for ANY assignment sequence,
// no matter what the context evaluated before (its engine state differs
// every time — the verdicts must not). Also the probe/add surface the
// greedy placers use, case-study-shaped workloads where theta and the
// deferral deadline actually bind, and workloads carrying memory and disk
// on servers of equal CPU count but different memory, checked against an
// ascending-id oracle built from the batch simulator alone.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "placement/baselines.h"
#include "placement/problem.h"
#include "slo/kernel.h"
#include "workload/fleet.h"
#include "workload/generator.h"

namespace ropus::placement {
namespace {

using testing::expect_same_evaluation;
using trace::Attribute;

/// The ascending-id oracle for one server: aggregate_workloads +
/// required_capacity for CPU, each attribute's per-slot sum and peak, then
/// the Section VI-B objective and the Section IX checks by definition —
/// nothing from PlacementProblem but utilization_score's f(U).
struct OracleServer {
  bool fits = false;
  double capacity = 0.0;
  double utilization = 0.0;
  double score = 0.0;
};

OracleServer oracle_server(std::span<const qos::WorkloadAllocations> ws,
                           std::vector<std::size_t> ids,
                           const sim::ServerSpec& spec,
                           const qos::CosCommitment& cos2) {
  std::sort(ids.begin(), ids.end());
  std::vector<const qos::AllocationTrace*> cpu;
  for (const std::size_t id : ids) cpu.push_back(&ws[id].cpu());
  const sim::Aggregate agg =
      sim::aggregate_workloads(cpu, ws.front().calendar());
  const sim::RequiredCapacity rc =
      sim::required_capacity(agg, spec.capacity(), cos2);
  OracleServer out;
  out.fits = rc.fits;
  double u = rc.capacity / spec.capacity();
  for (const Attribute a : trace::kAllAttributes) {
    if (a == Attribute::kCpu) continue;
    std::vector<double> total(agg.calendar.size(), 0.0);
    for (const std::size_t id : ids) {
      const trace::DemandTrace* t = ws[id].attribute(a);
      if (t == nullptr) continue;
      for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*t)[i];
    }
    double peak = 0.0;
    for (const double x : total) peak = std::max(peak, x);
    if (peak > spec.capacity(a) + slo::kCapacityEps) out.fits = false;
    if (spec.capacity(a) > 0.0) u = std::max(u, peak / spec.capacity(a));
  }
  if (!out.fits) {
    out.score = -static_cast<double>(ids.size());
    return out;
  }
  out.capacity = rc.capacity;
  out.utilization = std::min(1.0, u);
  out.score = PlacementProblem::utilization_score(out.utilization, spec.cpus);
  return out;
}

void expect_matches_oracle(const PlacementEvaluation& ev,
                           std::span<const qos::WorkloadAllocations> ws,
                           const std::vector<sim::ServerSpec>& pool,
                           const qos::CosCommitment& cos2) {
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const ServerEvaluation& se = ev.servers[s];
    if (se.workloads.empty()) continue;
    const OracleServer o = oracle_server(ws, se.workloads, pool[s], cos2);
    ASSERT_EQ(se.fits, o.fits) << s;
    ASSERT_EQ(se.required_capacity, o.capacity) << s;  // bit compare
    ASSERT_EQ(se.utilization, o.utilization) << s;
    ASSERT_EQ(se.score, o.score) << s;
  }
}

/// `count` 16-way servers that differ only in memory (and, every sixth,
/// in disk).
std::vector<sim::ServerSpec> mixed_memory_pool(std::size_t count = 6) {
  std::vector<sim::ServerSpec> pool = testing::memory_pool(count, 16, 64.0);
  const double memory_gb[] = {64.0, 24.0, 48.0, 16.0, 96.0, 32.0};
  for (std::size_t s = 0; s < pool.size(); ++s) {
    pool[s].memory_gb = memory_gb[s % 6];
    if (s % 6 == 4) pool[s].disk_mbps = 40.0;
  }
  return pool;
}

/// The case-study fleet on one week, theta 0.6 with a binding deadline;
/// even ids carry memory, ids divisible by 3 disk.
testing::AttributedFixture attributed_case_study(
    std::vector<sim::ServerSpec> pool) {
  testing::AttributedFixture f;
  f.cos2 = qos::CosCommitment{0.6, 60.0};
  const trace::Calendar cal = trace::Calendar::standard(1);
  const std::vector<trace::DemandTrace> demands =
      workload::case_study_traces(cal, 2006);
  const std::vector<workload::Profile> profiles =
      workload::case_study_profiles();
  qos::Requirement req = testing::flat_requirement();
  req.m_percent = 97.0;
  for (std::size_t id = 0; id < demands.size(); ++id) {
    qos::WorkloadAllocations w(qos::AllocationTrace(
        demands[id], qos::translate(demands[id], req, f.cos2)));
    workload::AttributeTraces attrs =
        workload::generate_attributes(profiles[id], demands[id], 2006);
    if (id % 2 == 0) {
      w.set_attribute(Attribute::kMemoryGb, std::move(attrs.memory));
    }
    if (id % 3 == 0) {
      w.set_attribute(Attribute::kDiskMbps, std::move(attrs.disk));
    }
    f.workloads.push_back(std::move(w));
  }
  f.problem =
      std::make_unique<PlacementProblem>(f.workloads, std::move(pool), f.cos2);
  return f;
}

TEST(DeltaContext, RandomAssignmentSequenceMatchesBatchBitForBit) {
  const auto flat = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  // The same shape with memory on most workloads, over servers of equal
  // CPU count but different memory.
  const auto attributed = testing::flat_attributed_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5},
      {20.0, 0.0, 12.0, 30.0, 8.0, 0.0, 16.0, 24.0, 4.0, 10.0},
      mixed_memory_pool());
  for (const PlacementProblem* problem :
       {flat.problem.get(), attributed.problem.get()}) {
    const std::unique_ptr<DeltaPlacementContext> ctx =
        problem->acquire_context();
    Rng rng(42);
    Assignment a(problem->workload_count(), 0);
    for (std::size_t step = 0; step < 200; ++step) {
      // Mutate a few genes — the offspring shape the genetic search feeds a
      // context — with occasional full scrambles (worst-case diffs).
      if (step % 23 == 0) {
        for (std::size_t& g : a) g = rng.uniform_index(problem->server_count());
      } else {
        const std::size_t moves = 1 + rng.uniform_index(3);
        for (std::size_t m = 0; m < moves; ++m) {
          a[rng.uniform_index(a.size())] =
              rng.uniform_index(problem->server_count());
        }
      }
      const PlacementEvaluation delta = ctx->evaluate(a);
      expect_same_evaluation(delta, problem->evaluate(a));
      if (HasFatalFailure()) FAIL() << "step " << step;
      if (problem == attributed.problem.get()) {
        expect_matches_oracle(delta, attributed.workloads, problem->servers(),
                              attributed.cos2);
        if (HasFatalFailure()) FAIL() << "oracle, step " << step;
      }
    }
  }
}

TEST(DeltaContext, CaseStudyWorkloadsMatchBatchWhereCommitmentsBind) {
  // Real-shape traces on a theta < 1 commitment with a binding deadline:
  // verdicts depend on the deferral FIFO and per-group theta, not just
  // peaks. Memory and disk ride along on servers of equal CPU count.
  std::vector<sim::ServerSpec> pool = testing::memory_pool(5, 16, 64.0);
  pool[1].memory_gb = 12.0;
  pool[3].memory_gb = 20.0;
  const auto f = attributed_case_study(std::move(pool));

  const std::unique_ptr<DeltaPlacementContext> ctx =
      f.problem->acquire_context();
  Rng rng(7);
  Assignment a(f.problem->workload_count());
  for (std::size_t& g : a) g = rng.uniform_index(f.problem->server_count());
  bool saw_memory_refusal = false;
  for (std::size_t step = 0; step < 30; ++step) {
    a[rng.uniform_index(a.size())] =
        rng.uniform_index(f.problem->server_count());
    const PlacementEvaluation delta = ctx->evaluate(a);
    expect_same_evaluation(delta, f.problem->evaluate(a));
    if (HasFatalFailure()) FAIL() << "step " << step;
    expect_matches_oracle(delta, f.workloads, f.problem->servers(), f.cos2);
    if (HasFatalFailure()) FAIL() << "oracle, step " << step;
    for (std::size_t s = 0; s < delta.servers.size(); ++s) {
      const ServerEvaluation& se = delta.servers[s];
      // Judged unfit although the same hosted set fits a 64 GiB server.
      saw_memory_refusal =
          saw_memory_refusal ||
          (se.used && !se.fits &&
           f.problem->server_required_capacity(se.workloads,
                                               f.problem->servers()[0])
               .fits);
    }
  }
  EXPECT_TRUE(saw_memory_refusal);
}

TEST(DeltaContext, ProbeAgreesWithCommittedEvaluation) {
  const auto flat =
      testing::flat_problem({3.0, 2.5, 2.0, 1.5, 1.0, 1.0, 0.5}, 4);
  std::vector<sim::ServerSpec> pool = testing::memory_pool(4, 16, 64.0);
  pool[0].memory_gb = 20.0;
  pool[2].memory_gb = 28.0;
  const auto attributed = testing::flat_attributed_problem(
      {3.0, 2.5, 2.0, 1.5, 1.0, 1.0, 0.5},
      {16.0, 0.0, 12.0, 8.0, 24.0, 6.0, 10.0}, std::move(pool));
  for (const PlacementProblem* problem :
       {flat.problem.get(), attributed.problem.get()}) {
    const std::unique_ptr<DeltaPlacementContext> ctx =
        problem->acquire_context();
    // Place greedily via probes, holding the last workload back; after each
    // commit, the probed verdict must equal what a batch evaluation reports
    // for that server.
    const std::size_t held = problem->workload_count() - 1;
    std::vector<std::vector<std::size_t>> hosted(problem->server_count());
    for (std::size_t w = 0; w < held; ++w) {
      std::size_t target = problem->server_count();
      ServerVerdict chosen;
      for (std::size_t s = 0; s < problem->server_count(); ++s) {
        const ServerVerdict v = ctx->probe(s, w);
        if (v.fits && target == problem->server_count()) {
          target = s;
          chosen = v;
        }
      }
      ASSERT_LT(target, problem->server_count()) << w;
      ctx->add(w, target);
      hosted[target].push_back(w);
      const ServerVerdict batch = problem->server_required_capacity(
          hosted[target], problem->servers()[target]);
      ASSERT_EQ(chosen.fits, batch.fits) << w;
      ASSERT_EQ(chosen.capacity, batch.capacity) << w;
      ASSERT_EQ(chosen.peaks, batch.peaks) << w;
    }
    // Every probe above restored the engine: probing the held-back
    // workload (new memo keys, so the engine answers) still matches a
    // fresh batch verdict on every server.
    for (std::size_t s = 0; s < problem->server_count(); ++s) {
      std::vector<std::size_t> with = hosted[s];
      with.push_back(held);
      const ServerVerdict probed = ctx->probe(s, held);
      const ServerVerdict batch =
          problem->server_required_capacity(with, problem->servers()[s]);
      ASSERT_EQ(probed.fits, batch.fits) << s;
      ASSERT_EQ(probed.capacity, batch.capacity) << s;
      ASSERT_EQ(probed.peaks, batch.peaks) << s;
    }
    // remove() restores the previous verdict bits.
    const std::size_t last = held - 1;
    const std::size_t host = ctx->engine().host_of(last);
    ctx->remove(last);
    std::erase(hosted[host], last);
    const ServerVerdict after = ctx->probe(host, last);
    std::vector<std::size_t> ids = hosted[host];
    ids.push_back(last);
    const ServerVerdict batch =
        problem->server_required_capacity(ids, problem->servers()[host]);
    ASSERT_EQ(after.fits, batch.fits);
    ASSERT_EQ(after.capacity, batch.capacity);
    ASSERT_EQ(after.peaks, batch.peaks);
  }
}

TEST(DeltaContext, GreedyBaselinesUnchangedByTheDeltaPath) {
  // The greedy placers now probe through the engine; their outputs are part
  // of the golden surface (seeds, ablations) and must not shift.
  const auto f = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  const auto ffd = first_fit_decreasing(*f.problem);
  ASSERT_TRUE(ffd.has_value());
  // Recompute every server verdict from scratch on a fresh problem (empty
  // memo) and check the assignment is feasible with identical score.
  testing::Fixture g = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  expect_same_evaluation(f.problem->evaluate(*ffd), g.problem->evaluate(*ffd));

  // With attributes, FFD through the engine equals first-fit-decreasing
  // written against batch verdicts alone.
  const auto a = attributed_case_study(mixed_memory_pool(12));
  const auto greedy = first_fit_decreasing(*a.problem);
  ASSERT_TRUE(greedy.has_value());
  const auto b = attributed_case_study(mixed_memory_pool(12));
  std::vector<std::size_t> order(b.problem->workload_count());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&b](std::size_t x, std::size_t y) {
                     return b.problem->workload(x).peak_allocation() >
                            b.problem->workload(y).peak_allocation();
                   });
  std::vector<std::vector<std::size_t>> hosted(b.problem->server_count());
  Assignment reference(order.size());
  for (const std::size_t w : order) {
    std::size_t s = 0;
    for (; s < hosted.size(); ++s) {
      std::vector<std::size_t> trial = hosted[s];
      trial.push_back(w);
      if (oracle_server(b.workloads, trial, b.problem->servers()[s], b.cos2)
              .fits) {
        break;
      }
    }
    ASSERT_LT(s, hosted.size()) << w;
    hosted[s].push_back(w);
    reference[w] = s;
  }
  EXPECT_EQ(*greedy, reference);
  expect_same_evaluation(a.problem->evaluate(*greedy),
                         b.problem->evaluate(reference));
}

}  // namespace
}  // namespace ropus::placement
