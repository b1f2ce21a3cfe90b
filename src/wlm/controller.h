// The per-container workload manager of Section II: every measurement
// interval it sets the container's allocation to burst factor x recent
// demand, bounded by the maximum allocation that QoS translation computed,
// and splits the request across the two allocation priorities at the
// breakpoint.
//
// The controller no longer trusts every observation. Each reading is
// classified (ok / stale / missing / corrupt; see telemetry.h) and unusable
// intervals are served by an explicit degraded-mode fallback policy instead
// of silently mis-allocating. A HealthReport records what the measurement
// pipeline did over the run.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "qos/translation.h"
#include "wlm/telemetry.h"

namespace ropus::wlm {

/// How the controller observes demand.
enum class Policy {
  /// Allocation for interval t uses the demand measured in interval t-1 —
  /// the real control loop, including its reaction lag.
  kReactive,
  /// Allocation for interval t uses interval t's own demand — the idealized
  /// loop that QoS translation plans for. Useful to separate translation
  /// error from control lag.
  kClairvoyant,
  /// Allocation for interval t uses the *maximum* demand over the last
  /// `history_window` measurements — a conservative variant that trades
  /// allocation slack for fewer lag-induced degradations on bursty
  /// workloads (allocations shrink slowly, grow fast).
  kWindowedMax,
};

/// What the controller requests while its measurements are unusable.
enum class FallbackPolicy {
  /// Re-issue the last measurement-driven request (conservative maximum
  /// before any measurement arrived).
  kHoldLast,
  /// Ramp linearly from the last measurement-driven request toward the
  /// translation's maximum allocation over `decay_intervals` missing
  /// intervals — the longer the blackout, the less the last reading is
  /// trusted.
  kDecayToMax,
  /// Request only the guaranteed CoS1 entitlement (the breakpoint share of
  /// the maximum allocation) — cheap, but exposed if demand is high.
  kEntitlementFloor,
};

/// Degraded-mode configuration: classification tolerances and the fallback.
struct DegradedModeConfig {
  FallbackPolicy fallback = FallbackPolicy::kHoldLast;
  /// A stale reading at most this many intervals old is still used as a
  /// measurement (it is counted in HealthReport::stale either way).
  std::size_t stale_tolerance = 1;
  /// kDecayToMax reaches the maximum allocation after this many consecutive
  /// unusable intervals (>= 1).
  std::size_t decay_intervals = 6;
  /// Readings above `spike_threshold_factor * D_new_max` are classified
  /// corrupt (a plausibility filter against garbage spikes that would pin a
  /// windowed controller at maximum). 0 disables the filter.
  double spike_threshold_factor = 0.0;

  /// Throws InvalidArgument on nonsensical settings.
  void validate() const;
};

/// An allocation request split across the two classes of service.
struct AllocationRequest {
  double cos1 = 0.0;
  double cos2 = 0.0;
  double total() const { return cos1 + cos2; }
};

/// The kWindowedMax history window used unless a caller picks another.
inline constexpr std::size_t kDefaultHistoryWindow = 3;

class Controller {
 public:
  /// Builds a controller enforcing translation `tr` (burst factor 1/U_low,
  /// maximum allocation D_new_max/U_low, CoS1 share p). `history_window`
  /// only matters under kWindowedMax (>= 1; 1 behaves like kReactive).
  /// `degraded` configures classification and the telemetry fallback.
  Controller(const qos::Translation& tr, Policy policy,
             std::size_t history_window = kDefaultHistoryWindow,
             const DegradedModeConfig& degraded = {});

  /// Feeds one demand reading (CPUs) and returns the request for the
  /// *next* interval under kReactive, or for this interval under
  /// kClairvoyant. Classifies `obs` (value sanity plus the pipeline's own
  /// kind/staleness tags) and either steps on the measurement or serves
  /// the interval from the fallback policy: a non-finite or negative value
  /// takes the corrupt-observation path, never an allocation request.
  AllocationRequest observe(const Observation& obs);

  /// observe() over a run of consecutive readings: `out[k]` is what
  /// observe(readings[k]) returns and `fallback[k]` is in_fallback() right
  /// after it (1 or 0). The per-reading body is observe()'s own, inlined,
  /// so a run costs one call. The three spans must have equal length.
  void observe_run(std::span<const Observation> readings,
                   std::span<AllocationRequest> out,
                   std::span<std::uint8_t> fallback);

  /// observe() over a run of consecutive perfect readings: `out[k]` is what
  /// observe(Observation::ok(demand[k])) returns. The spans must have
  /// equal length.
  void step_run(std::span<const double> demand,
                std::span<AllocationRequest> out);

  /// Classification `observe` would apply, without stepping.
  ObservationClass classify(const Observation& obs) const {
    if (obs.kind == ObservationClass::kMissing) {
      return ObservationClass::kMissing;
    }
    if (obs.kind == ObservationClass::kStale) return ObservationClass::kStale;
    // kOk and kCorrupt observations are judged by the value itself: a
    // corrupted reading that still looks plausible is indistinguishable
    // from a real one, and a nominally-ok reading carrying garbage must not
    // reach the allocation path.
    if (!std::isfinite(obs.value) || obs.value < 0.0) {
      return ObservationClass::kCorrupt;
    }
    if (degraded_.spike_threshold_factor > 0.0 &&
        obs.value > degraded_.spike_threshold_factor * translation_.d_new_max) {
      return ObservationClass::kCorrupt;
    }
    return ObservationClass::kOk;
  }

  /// Resets the demand history and fallback state (e.g. after migrating
  /// the container). The health report persists — it describes the
  /// controller's whole lifetime.
  void reset();

  Policy policy() const { return policy_; }
  double burst_factor() const { return 1.0 / translation_.requirement.u_low; }
  const qos::Translation& translation() const { return translation_; }
  const DegradedModeConfig& degraded_config() const { return degraded_; }

  /// True when the previous interval was served by the fallback policy.
  bool in_fallback() const { return consecutive_degraded_ > 0; }
  /// Consecutive unusable intervals ending at the previous observation.
  std::size_t consecutive_degraded() const { return consecutive_degraded_; }
  const HealthReport& health() const { return health_; }

  /// The complete mutable state, for checkpointing. restore() on a fresh
  /// controller built with the same (translation, policy, window,
  /// degraded config) resumes the stream with identical subsequent
  /// requests — history values and last_basis round-trip exactly.
  struct Snapshot {
    std::vector<double> history;
    double last_basis = 0.0;
    std::size_t consecutive_degraded = 0;
    HealthReport health;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  // The per-reading body of observe(), observe_run() and step_run(), and
  // the steps it takes. Defined in controller.cpp (the only caller),
  // forced inline so a run takes no call per reading.
  [[gnu::always_inline]] inline AllocationRequest observe_one(
      const Observation& obs);
  [[gnu::always_inline]] inline AllocationRequest request_for(
      double demand) const;
  [[gnu::always_inline]] inline AllocationRequest step_measurement(
      double demand);
  [[gnu::always_inline]] inline AllocationRequest fallback_request() const;
  // The cold part of observe_one: metrics and rate-limited warnings.
  void note_corrupt(double value);
  void note_fallback_entry();

  qos::Translation translation_;
  Policy policy_;
  std::size_t history_window_;
  DegradedModeConfig degraded_;
  /// Recent measurements as a ring: the newest `history_count_` of them
  /// end just before `history_next_` (mod the ring's size). A step
  /// overwrites the oldest slot in place instead of shifting a vector.
  std::vector<double> history_;
  std::size_t history_count_ = 0;
  std::size_t history_next_ = 0;
  /// Demand the last measurement-driven request was computed from, or the
  /// conservative maximum before any measurement arrived.
  double last_basis_;
  std::size_t consecutive_degraded_ = 0;
  HealthReport health_;
};

}  // namespace ropus::wlm
