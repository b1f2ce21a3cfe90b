// In-memory time-series over the metrics registry: a fixed-capacity ring
// of windowed samples per metric, fed by sampling the registry on a
// configurable cadence. This is the live-introspection counterpart of the
// exit-time snapshot exporters — a running daemon serves the rings over
// its scrape endpoints (/stats.json) instead of going dark until exit.
//
// Design constraints:
//  * sampling must not perturb the hot paths: the registry's recording
//    stays lock-free, and one sample() costs a registry snapshot plus one
//    ring append per metric under a single TimeSeries mutex;
//  * memory is bounded by construction: `capacity` windows per metric,
//    oldest overwritten first — a week-long daemon holds the same bytes as
//    a minute-old one;
//  * window aggregates are mergeable: counter windows carry deltas (merge
//    = sum), so a reader sums a trailing range without raw samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace ropus::obs {

/// One sampling window of a counter: the increase over the window plus
/// the cumulative value at its close. Merging adjacent windows sums the
/// deltas and keeps the later total.
struct CounterWindow {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::uint64_t delta = 0;
  std::uint64_t total = 0;
};

/// One sampled gauge value.
struct GaugeWindow {
  double start_seconds = 0.0;
  double value = 0.0;
};

/// One sampled histogram state (cumulative snapshot at window close, with
/// the count delta over the window so rates are still derivable).
struct HistogramWindow {
  double start_seconds = 0.0;
  std::uint64_t delta = 0;
  HistogramSnapshot snapshot;
};

class TimeSeries {
 public:
  struct Options {
    /// Windows retained per metric; the ring overwrites the oldest.
    std::size_t capacity = 512;
    /// maybe_sample() cadence.
    double cadence_seconds = 1.0;

    void validate() const;
  };

  TimeSeries();  // default Options (declared separately: GCC rejects a
                 // default argument of a nested type inside its own class)
  explicit TimeSeries(Options options);

  /// Appends one window per metric in `snapshot`, stamped `now` (seconds,
  /// monotonic). Counter deltas are measured against the previous sample
  /// of the same name; a counter that shrank (reset) restarts its delta
  /// from the new value instead of wrapping.
  void sample(const Snapshot& snapshot, double now);

  /// sample()s the registry when at least `cadence_seconds` passed since
  /// the previous sample; returns whether it sampled. The intended hook
  /// for poll loops: call every iteration, pay only on cadence.
  bool maybe_sample(const Registry& registry, double now);

  std::size_t samples() const;
  const Options& options() const { return options_; }

  /// The whole store as one JSON document for GET /stats.json and
  /// `ropus_cli top`: {"cadence_seconds":..,"samples":..,"counters":{name:
  /// [{t,delta,total},..]},"gauges":{..},"histograms":{..}}.
  std::string to_json() const;

 private:
  /// Fixed-capacity ring, oldest overwritten first.
  template <typename T>
  struct Ring {
    std::vector<T> slots;
    std::size_t head = 0;   // next write position
    std::size_t count = 0;  // valid entries (<= slots.size())

    void push(std::size_t capacity, T value) {
      if (slots.size() < capacity) {
        slots.push_back(std::move(value));
        head = slots.size() % capacity;
        count = slots.size();
        return;
      }
      slots[head] = std::move(value);
      head = (head + 1) % slots.size();
      count = slots.size();
    }
    /// Entry `i` counting from the oldest retained.
    const T& at(std::size_t i) const {
      const std::size_t base = count < slots.size() ? 0 : head;
      return slots[(base + i) % slots.size()];
    }
  };

  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, Ring<CounterWindow>, std::less<>> counters_;
  std::map<std::string, Ring<GaugeWindow>, std::less<>> gauges_;
  std::map<std::string, Ring<HistogramWindow>, std::less<>> histograms_;
  std::size_t samples_ = 0;
  double last_sample_ = 0.0;
};

}  // namespace ropus::obs
