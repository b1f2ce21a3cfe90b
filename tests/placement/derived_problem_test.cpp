// A problem derived on another pool shares its base's verdict memo (the
// failure sweep derives one per scenario). Sharing is sound only because
// the memo key holds everything a verdict depends on besides what the two
// problems share: a derived problem must answer every evaluate() and
// server_required_capacity() bit for bit as a fresh problem on its pool,
// after the base has filled the memo from its own pool — homogeneous,
// with mixed CPU counts (8- and 16-way verdicts of one set must stay
// apart), and on a pool with less memory (the memo's attribute peaks are
// judged per server).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "placement/problem.h"

namespace ropus::placement {
namespace {

using testing::expect_same_evaluation;

const std::vector<double> kDemands{3.0, 3.0, 2.5, 2.5, 2.0,
                                   2.0, 1.5, 1.0, 1.0, 0.5};

/// Per round: the base evaluates a random assignment over the derived
/// pool's indices (filling the shared memo under the base's specs), then
/// the derived problem, its pooled delta context and a fresh problem on
/// the derived pool all evaluate it, and each derived server is asked for
/// a random subset's verdict. Returns how many of those subsets the memo
/// already held under a different server spec with a different verdict.
int expect_derived_answers_like_fresh(const PlacementProblem& base,
                                      const PlacementProblem& derived,
                                      const PlacementProblem& fresh,
                                      std::uint64_t seed) {
  EXPECT_LE(derived.server_count(), base.server_count());
  const std::unique_ptr<DeltaPlacementContext> ctx = derived.acquire_context();
  Rng rng(seed);
  int split_verdicts = 0;
  for (std::size_t round = 0; round < 80; ++round) {
    Assignment a(derived.workload_count());
    for (std::size_t& g : a) g = rng.uniform_index(derived.server_count());
    base.evaluate(a);
    const PlacementEvaluation want = fresh.evaluate(a);
    expect_same_evaluation(derived.evaluate(a), want);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "evaluate, round " << round;
      return split_verdicts;
    }
    expect_same_evaluation(ctx->evaluate(a), want);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "delta evaluate, round " << round;
      return split_verdicts;
    }

    for (std::size_t s = 0; s < derived.server_count(); ++s) {
      std::vector<std::size_t> ids;
      for (std::size_t w = 0; w < derived.workload_count(); ++w) {
        if (rng.bernoulli(0.3)) ids.push_back(w);
      }
      if (ids.empty()) continue;
      const sim::ServerSpec& spec = derived.servers()[s];
      const ServerVerdict other =
          base.server_required_capacity(ids, base.servers()[s]);
      const ServerVerdict got = derived.server_required_capacity(ids, spec);
      const ServerVerdict exp = fresh.server_required_capacity(ids, spec);
      EXPECT_EQ(got.fits, exp.fits) << "round " << round << " server " << s;
      EXPECT_EQ(got.capacity, exp.capacity) << "round " << round;
      EXPECT_EQ(got.peaks, exp.peaks) << "round " << round;
      if (other.fits != exp.fits) ++split_verdicts;
    }
  }
  return split_verdicts;
}

TEST(DerivedProblem, HomogeneousSurvivorsAnswerLikeAFreshProblem) {
  const auto f = testing::flat_problem(kDemands, 6);
  const std::vector<sim::ServerSpec> survivors = sim::homogeneous_pool(4, 16);
  const PlacementProblem derived(*f.problem, survivors);
  const PlacementProblem fresh(f.allocations, survivors, f.cos2);
  expect_derived_answers_like_fresh(*f.problem, derived, fresh, 11);
}

TEST(DerivedProblem, SharesTheBaseMemo) {
  const auto f = testing::flat_problem(kDemands, 6);
  const std::vector<sim::ServerSpec> survivors = sim::homogeneous_pool(4, 16);
  const PlacementProblem derived(*f.problem, survivors);
  const PlacementProblem fresh(f.allocations, survivors, f.cos2);
  const Assignment a{0, 1, 2, 3, 0, 1, 2, 3, 0, 1};
  f.problem->evaluate(a);
  const std::size_t entries = f.problem->cache_entries();
  ASSERT_GT(entries, 0u);
  // The same sets on servers of the same CPU count: all memo hits.
  derived.evaluate(a);
  EXPECT_EQ(derived.cache_entries(), entries);
  EXPECT_EQ(f.problem->cache_entries(), entries);
  // A problem built from the workloads instead starts its own memo.
  EXPECT_EQ(fresh.cache_entries(), 0u);
}

TEST(DerivedProblem, MixedCpuCountsKeepTheirVerdictsApart) {
  // The base fills the memo on 16-way servers only; the derived pool
  // alternates 8- and 16-way servers, so a set judged on a 16-way base
  // server meets the same set on an 8-way derived one.
  const auto f = testing::flat_problem(kDemands, 6);
  std::vector<sim::ServerSpec> mixed = sim::homogeneous_pool(5, 16);
  for (std::size_t s = 0; s < mixed.size(); s += 2) mixed[s].cpus = 8;
  const PlacementProblem derived(*f.problem, mixed);
  const PlacementProblem fresh(f.allocations, mixed, f.cos2);
  EXPECT_GT(expect_derived_answers_like_fresh(*f.problem, derived, fresh, 12),
            0);
}

TEST(DerivedProblem, LessMemoryIsJudgedOnTheDerivedPool) {
  const auto f = testing::flat_attributed_problem(
      kDemands, {20.0, 0.0, 12.0, 30.0, 8.0, 0.0, 16.0, 24.0, 4.0, 10.0},
      testing::memory_pool(6, 16, 96.0));
  std::vector<sim::ServerSpec> smaller = testing::memory_pool(5, 16, 24.0);
  smaller[1].memory_gb = 48.0;
  const PlacementProblem derived(*f.problem, smaller);
  const PlacementProblem fresh(f.workloads, smaller, f.cos2);
  EXPECT_GT(expect_derived_answers_like_fresh(*f.problem, derived, fresh, 13),
            0);
}

TEST(DerivedProblem, OutlivesItsBase) {
  const auto f = testing::flat_problem(kDemands, 6);
  const std::vector<sim::ServerSpec> survivors = sim::homogeneous_pool(4, 16);
  const Assignment a{0, 1, 2, 3, 0, 1, 2, 3, 0, 1};
  auto base = std::make_unique<PlacementProblem>(f.allocations,
                                                 sim::homogeneous_pool(6, 16),
                                                 f.cos2);
  base->evaluate(a);
  const PlacementProblem derived(*base, survivors);
  base.reset();
  const PlacementProblem fresh(f.allocations, survivors, f.cos2);
  expect_same_evaluation(derived.evaluate(a), fresh.evaluate(a));
}

}  // namespace
}  // namespace ropus::placement
