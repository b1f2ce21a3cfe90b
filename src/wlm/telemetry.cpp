#include "wlm/telemetry.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ropus::wlm {

void TelemetryFaultModel::validate() const {
  const auto is_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  ROPUS_REQUIRE(is_rate(drop_rate), "drop rate must be in [0,1]");
  ROPUS_REQUIRE(is_rate(stale_rate), "stale rate must be in [0,1]");
  ROPUS_REQUIRE(is_rate(corrupt_rate), "corrupt rate must be in [0,1]");
  ROPUS_REQUIRE(is_rate(blackout_rate), "blackout rate must be in [0,1]");
  ROPUS_REQUIRE(max_staleness >= 1, "max staleness must be >= 1");
  ROPUS_REQUIRE(noise_stddev >= 0.0, "noise stddev must be >= 0");
  ROPUS_REQUIRE(blackout_mean_intervals >= 1.0,
                "blackout mean must be >= 1 interval");
}

TelemetryChannel::TelemetryChannel(const TelemetryFaultModel& model,
                                   std::uint64_t seed)
    : model_(model), rng_(seed) {
  model_.validate();
}

inline Observation TelemetryChannel::observe_one(double true_demand) {
  const std::size_t t = interval_;
  interval_ += 1;
  if (ring_.size() <= model_.max_staleness) {
    ring_.push_back(true_demand);
    head_ = ring_.size() - 1;
  } else {
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ring_[head_] = true_demand;
  }

  // Fault processes fire in a fixed order; each rate only consumes random
  // draws when its process is enabled, so sweeping one rate under a fixed
  // seed keeps every other draw aligned (common random numbers).
  if (model_.blackout_rate > 0.0) {
    if (blackout_left_ > 0) {
      blackout_left_ -= 1;
      return Observation::missing();
    }
    if (rng_.bernoulli(model_.blackout_rate)) {
      blackout_left_ = static_cast<std::size_t>(
          rng_.geometric(1.0 / model_.blackout_mean_intervals));
      blackout_left_ -= 1;  // this interval is the first of the blackout
      return Observation::missing();
    }
  }

  if (model_.drop_rate > 0.0 && rng_.bernoulli(model_.drop_rate)) {
    return Observation::missing();
  }

  if (model_.stale_rate > 0.0 && rng_.bernoulli(model_.stale_rate)) {
    const std::size_t k =
        1 + static_cast<std::size_t>(rng_.uniform_index(model_.max_staleness));
    // No reading exists before the trace began: the repeat degenerates to a
    // dropped interval.
    if (k > t) return Observation::missing();
    const std::size_t at = head_ >= k ? head_ - k : head_ + ring_.size() - k;
    return Observation{ring_[at], ObservationClass::kStale, k};
  }

  if (model_.corrupt_rate > 0.0 && rng_.bernoulli(model_.corrupt_rate)) {
    Observation obs{0.0, ObservationClass::kCorrupt, 0};
    switch (rng_.uniform_index(4)) {
      case 0:
        obs.value = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        obs.value = std::numeric_limits<double>::infinity();
        break;
      case 2:
        obs.value = -(true_demand + 1.0);
        break;
      default:
        obs.value = (true_demand + 1.0) * 100.0;  // implausible spike
        break;
    }
    return obs;
  }

  double value = true_demand;
  if (model_.noise_stddev > 0.0) {
    value = std::max(0.0, value + rng_.normal(0.0, model_.noise_stddev));
  }
  return Observation::ok(value);
}

void TelemetryChannel::observe_block(std::span<const double> true_demand,
                                     std::span<Observation> out) {
  ROPUS_REQUIRE(out.size() == true_demand.size(),
                "a block's demands and observations must align");
  for (std::size_t k = 0; k < true_demand.size(); ++k) {
    out[k] = observe_one(true_demand[k]);
  }
}

void HealthReport::merge(const HealthReport& other) {
  intervals += other.intervals;
  ok += other.ok;
  stale += other.stale;
  missing += other.missing;
  corrupt += other.corrupt;
  fallback_intervals += other.fallback_intervals;
  fallback_activations += other.fallback_activations;
  longest_blackout = std::max(longest_blackout, other.longest_blackout);
}

}  // namespace ropus::wlm
