#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

// The registry is process-global and other suites may run in the same
// binary, so every test uses metric names under a "test." prefix unique to
// the test.

namespace ropus::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, EmptySnapshot) {
  Histogram h{Histogram::Options{}};
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(Histogram, ExactMinMaxAndSum) {
  Histogram h{Histogram::Options{}};
  h.record(0.001);
  h.record(0.25);
  h.record(3.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.sum, 3.251);
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBuckets) {
  Histogram h(Histogram::Options{1.0, 100.0, 16});
  h.record(0.0);      // below min -> first bucket
  h.record(-5.0);     // negative -> first bucket, exact min tracked
  h.record(1e9);      // above max -> last bucket
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.min, -5.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(Histogram, NanIgnored) {
  Histogram h{Histogram::Options{}};
  h.record(std::nan(""));
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(Histogram, PercentilesTrackExactQuantiles) {
  // Log-uniform samples across four decades: the bucket-midpoint estimate
  // must stay within one bucket ratio of the exact order statistic.
  Histogram h{Histogram::Options{}};
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(std::pow(10.0, rng.uniform(-5.0, -1.0)));
    h.record(samples.back());
  }
  const HistogramSnapshot snap = h.snapshot();
  const double tol = h.bucket_ratio();  // relative error bound
  for (const auto& [estimate, pct] :
       {std::pair{snap.p50, 50.0}, std::pair{snap.p95, 95.0},
        std::pair{snap.p99, 99.0}}) {
    const double exact = stats::percentile(samples, pct);
    EXPECT_GT(estimate, exact / tol) << "p" << pct;
    EXPECT_LT(estimate, exact * tol) << "p" << pct;
  }
  EXPECT_DOUBLE_EQ(snap.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(snap.max, *std::max_element(samples.begin(), samples.end()));
}

TEST(Registry, SameNameReturnsSameObject) {
  Counter& a = counter("test.registry.same");
  Counter& b = counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, CrossKindNameCollisionThrows) {
  counter("test.registry.kind_collision");
  EXPECT_THROW(gauge("test.registry.kind_collision"), InvalidArgument);
  EXPECT_THROW(histogram("test.registry.kind_collision"), InvalidArgument);
}

TEST(Registry, SnapshotIsNameSorted) {
  counter("test.registry.sorted.b");
  counter("test.registry.sorted.a");
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

TEST(Registry, ResetZeroesInPlaceKeepingReferences) {
  Counter& c = counter("test.registry.reset");
  Histogram& h = histogram("test.registry.reset_hist");
  c.add(5);
  h.record(0.5);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);  // cached reference still live after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, ConcurrentRecordingIsLossless) {
  // Hammer one shared counter and one shared histogram from several
  // threads; every recorded event must be accounted for.
  Counter& c = counter("test.registry.stress.counter");
  Histogram& h = histogram("test.registry.stress.hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.record(1e-4 * static_cast<double>(t + 1));
        // Interleave registry lookups to stress the registration mutex
        // against concurrent recording.
        if (i % 1000 == 0) counter("test.registry.stress.lookup").add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 4e-4);
}

TEST(ScopedTimer, RecordsElapsedWhenEnabled) {
  Histogram& h = histogram("test.timer.enabled");
  h.reset();
  set_timing_enabled(true);
  { ScopedTimer timer(h); }
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_GE(h.snapshot().min, 0.0);
}

TEST(ScopedTimer, NoOpWhenDisabled) {
  Histogram& h = histogram("test.timer.disabled");
  h.reset();
  set_timing_enabled(false);
  { ScopedTimer timer(h); }
  set_timing_enabled(true);  // restore the default for other tests
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(MonotonicSeconds, NonDecreasing) {
  const double a = monotonic_seconds();
  const double b = monotonic_seconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace ropus::obs
