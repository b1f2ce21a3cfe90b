// Thread-safety stress for the introspection plane: writer threads hammer
// the registry (including registering brand-new metrics mid-flight) while
// reader threads snapshot, export Prometheus text and feed a TimeSeries —
// exactly what the serve daemon's scrape endpoints do concurrently with
// request processing. Run under TSan in CI; asserts here are liveness and
// sanity, the sanitizer provides the memory-model verdict.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace ropus::obs {
namespace {

TEST(ObsConcurrencyTest, RegistryMutationDuringExportAndSampling) {
  Registry registry;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};

  // Pre-bound references exercise the steady-state path; the named lookups
  // in the writers exercise registration racing the exporters. Binding them
  // before any thread starts means no reader sees an empty registry.
  Counter& hot = registry.counter("stress.hot");
  Gauge& level = registry.gauge("stress.level");
  Histogram& lat = registry.histogram("stress.latency_seconds");

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, &writes, &hot, &level, &lat, t] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        hot.add(1);
        level.set(static_cast<double>(n));
        lat.record(0.001 * static_cast<double>(n % 1000 + 1));
        registry.counter("stress.dynamic." + std::to_string(t) + "." +
                         std::to_string(n % 16))
            .add(1);
        ++n;
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  TimeSeries::Options options;
  options.capacity = 64;
  options.cadence_seconds = 0.0001;
  TimeSeries series(options);
  std::atomic<std::uint64_t> exports{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&registry, &series, &stop, &exports] {
      double fake_now = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Snapshot snap = registry.snapshot();
        const std::string prom = to_prometheus(snap);
        EXPECT_FALSE(prom.empty());
        fake_now += 0.001;
        series.maybe_sample(registry, fake_now);
        (void)series.to_json();
        exports.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Run until both sides made progress, bounded by a wall-clock cap so a
  // livelock fails the test instead of hanging it.
  const double deadline = monotonic_seconds() + 5.0;
  while (monotonic_seconds() < deadline &&
         (writes.load() < 20000 || exports.load() < 50)) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  for (std::thread& r : readers) r.join();

  EXPECT_GT(writes.load(), 0u);
  EXPECT_GT(exports.load(), 0u);
  const Snapshot final_snap = registry.snapshot();
  std::uint64_t hot_total = 0;
  for (const auto& [name, value] : final_snap.counters) {
    if (name == "stress.hot") hot_total = value;
  }
  // Relaxed counters never lose increments once threads are joined.
  EXPECT_EQ(hot_total, writes.load());
  EXPECT_GT(series.samples(), 0u);
}

}  // namespace
}  // namespace ropus::obs
