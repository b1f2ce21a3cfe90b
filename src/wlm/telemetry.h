// Degraded-telemetry fault model for the workload-manager control loop.
//
// The controller of Section II re-computes each container's allocation from
// 5-minute demand measurements, implicitly trusting every observation. Real
// pool sensors drop readings, deliver them late, and garble them outright.
// This header models that measurement pipeline explicitly: a
// TelemetryChannel sits between a true demand trace and the controller and
// deterministically injects per-interval faults — dropped readings, stale
// repeats of an earlier interval, additive noise, corrupted values
// (NaN/inf/negative/spike), and multi-interval sensor blackouts — each
// sampled from seeded per-application rates. The controller's degraded-mode
// policy (DegradedModeConfig, see controller.h) decides what to do when an
// observation is unusable and reports what happened through HealthReport.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ropus::wlm {

/// How the controller (or the channel) classifies one demand observation.
enum class ObservationClass {
  kOk,       // a usable measurement
  kStale,    // a repeat of an earlier interval's measurement
  kMissing,  // no reading arrived this interval
  kCorrupt,  // the value itself is garbage (NaN/inf/negative/spike)
};

/// One demand reading as the controller receives it. `kind` is what the
/// telemetry pipeline knows about the reading (a missing sample or a
/// timestamped stale repeat is detectable; a corrupted value may not be) —
/// the controller still re-validates the value itself.
struct Observation {
  double value = 0.0;
  ObservationClass kind = ObservationClass::kOk;
  /// Intervals of age for kStale (how far behind the repeat is); 0 otherwise.
  std::size_t staleness = 0;

  static Observation ok(double v) { return Observation{v}; }
  static Observation missing() {
    return Observation{0.0, ObservationClass::kMissing, 0};
  }
};

/// Per-interval fault rates for one application's measurement pipeline. All
/// processes are independent and sampled in a fixed order (blackout, drop,
/// stale, corrupt, noise), so a single-rate sweep under one seed reuses the
/// same uniform draws — higher rates strictly superset the faults of lower
/// ones (common random numbers).
struct TelemetryFaultModel {
  /// P(reading lost) per interval.
  double drop_rate = 0.0;
  /// P(reading is a repeat of interval t-k), k uniform in [1, max_staleness].
  double stale_rate = 0.0;
  std::size_t max_staleness = 3;
  /// P(reading corrupted) per interval; the corrupted value cycles through
  /// NaN, +inf, a negative, and a large spike.
  double corrupt_rate = 0.0;
  /// Additive Gaussian noise on surviving readings, stddev in CPUs
  /// (clamped at zero demand). 0 disables.
  double noise_stddev = 0.0;
  /// P(a sensor blackout starts) per interval; during a blackout every
  /// reading is missing. Duration is geometric with the given mean.
  double blackout_rate = 0.0;
  double blackout_mean_intervals = 6.0;

  /// True when any fault process is active.
  bool enabled() const {
    return drop_rate > 0.0 || stale_rate > 0.0 || corrupt_rate > 0.0 ||
           noise_stddev > 0.0 || blackout_rate > 0.0;
  }

  /// Throws InvalidArgument unless rates are probabilities, the staleness
  /// bound is >= 1, noise is >= 0, and the blackout mean is >= 1.
  void validate() const;
};

/// Deterministic per-application fault injector: feeds true demand values in
/// trace order and emits the observations the controller would see. A pure
/// function of (model, seed, input sequence), so the readings do not depend
/// on how the sequence is split into blocks. Stale repeats read a ring of
/// the last `max_staleness + 1` true values, grown on first use and then
/// overwritten in place. With no fault enabled every reading is the true
/// demand, tagged ok.
class TelemetryChannel {
 public:
  TelemetryChannel(const TelemetryFaultModel& model, std::uint64_t seed);

  /// Consumes the true demand of the next `true_demand.size()` intervals:
  /// `out[k]` is the possibly faulted observation of `true_demand[k]`. One
  /// call per block, the per-interval body inlined. The spans must have
  /// equal length.
  void observe_block(std::span<const double> true_demand,
                     std::span<Observation> out);

 private:
  // The per-interval body of observe_block(), defined in telemetry.cpp
  // (the only caller) and forced inline there.
  [[gnu::always_inline]] inline Observation observe_one(double true_demand);

  TelemetryFaultModel model_;
  Rng rng_;
  std::vector<double> ring_;  // recent true values; ring_[head_] is newest
  std::size_t head_ = 0;
  std::size_t interval_ = 0;
  std::size_t blackout_left_ = 0;
};

/// What the controller experienced over a run: observations by class,
/// fallback engagement, and the longest telemetry blackout it rode through.
/// `stale` counts every stale observation (used or not); `missing` and
/// `corrupt` are always unusable. `fallback_intervals` counts intervals
/// served by the degraded-mode policy instead of a measurement.
struct HealthReport {
  std::size_t intervals = 0;
  std::size_t ok = 0;
  std::size_t stale = 0;
  std::size_t missing = 0;
  std::size_t corrupt = 0;
  std::size_t fallback_intervals = 0;
  /// Transitions from measurement-driven into fallback operation.
  std::size_t fallback_activations = 0;
  /// Longest run of consecutive fallback intervals.
  std::size_t longest_blackout = 0;

  /// Accumulates another report (counts add, longest blackout is the max).
  void merge(const HealthReport& other);
};

}  // namespace ropus::wlm
