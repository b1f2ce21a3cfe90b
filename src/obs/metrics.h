// Pool-wide metrics: a lock-cheap registry of named counters, gauges and
// fixed-bucket histograms.
//
// Design constraints (see docs/observability.md):
//  * recording must be safe from any thread and cost a handful of relaxed
//    atomic operations — hot loops (the simulator slot loop, genetic
//    generations, faultsim trials) record directly;
//  * registration takes a mutex once; instrumentation sites cache the
//    returned reference in a function-local static so steady state never
//    touches the registry lock;
//  * metric objects live for the lifetime of the process (the registry
//    never deletes them), so cached references cannot dangle. reset()
//    zeroes values in place instead of destroying objects.
//
// Naming convention: dot-separated "<subsystem>.<path>[.<unit>]", e.g.
// "faultsim.trial_seconds" or "placement.genetic.generations".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ropus::obs {

/// Global kill-switch for *timing* instrumentation (scoped timers and
/// spans). Counters are unconditional — they are single relaxed adds.
/// Enabled by default; benches flip it to measure instrumentation overhead.
bool timing_enabled();
void set_timing_enabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of one histogram, with percentiles estimated from the
/// bucket layout (exact min/max are tracked separately from the buckets).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Cumulative distribution for Prometheus-style export: (upper bound,
  /// samples at or below it), downsampled from the internal layout to
  /// ~16 boundaries. The final entry is (+infinity, count), matching the
  /// `le="+Inf"` bucket the exposition format requires.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-layout geometric-bucket histogram. record() is wait-free: one
/// bucket increment plus compare-exchange loops for sum/min/max. Percentile
/// estimates interpolate inside a bucket, so their relative error is
/// bounded by the bucket ratio (~7% at the default 256 buckets over nine
/// decades); min and max are exact.
class Histogram {
 public:
  struct Options {
    /// Values at or below `min` land in the first bucket, values at or
    /// above `max` in the last. Defaults suit durations in seconds
    /// (100 ns .. 1000 s).
    double min = 1e-7;
    double max = 1e3;
    std::size_t buckets = 256;
  };

  explicit Histogram(const Options& options);

  void record(double value);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset();

  /// Relative half-width of one bucket: percentile estimates are within
  /// this factor of the true sample percentile.
  double bucket_ratio() const { return ratio_; }

 private:
  std::size_t bucket_of(double value) const;

  Options options_;
  double ratio_;      // geometric growth factor between bucket bounds
  double inv_log_ratio_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Everything the registry knows, flattened for exporters. Entries are
/// sorted by name so exports are deterministic.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class Registry {
 public:
  /// The process-wide registry used by all instrumentation sites.
  static Registry& global();

  /// Returns the metric with this name, creating it on first use. The
  /// reference stays valid for the registry's lifetime. Requesting the
  /// same name as a different metric kind throws InvalidArgument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       const Histogram::Options& options = {});

  Snapshot snapshot() const;

  /// Zeroes every metric in place; registered objects (and cached
  /// references to them) stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthands for the global registry; instrumentation sites typically bind
/// the result to a function-local static reference.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name,
                     const Histogram::Options& options = {});

/// Monotonic clock in seconds for timing instrumentation.
double monotonic_seconds();

/// RAII timer: records the elapsed wall time into a histogram when it goes
/// out of scope. No-op (no clock reads) while timing is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink)
      : sink_(timing_enabled() ? &sink : nullptr),
        start_(sink_ != nullptr ? monotonic_seconds() : 0.0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->record(monotonic_seconds() - start_);
  }

 private:
  Histogram* sink_;
  double start_;
};

}  // namespace ropus::obs
