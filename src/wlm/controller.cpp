#include "wlm/controller.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace ropus::wlm {

namespace {
// Rate limiters for the degraded-telemetry warnings: a long fault campaign
// hits these paths millions of times, so log the first few and then sample.
log::Every& corrupt_warn_limiter() {
  static log::Every limiter(5, 10000);
  return limiter;
}
log::Every& fallback_warn_limiter() {
  static log::Every limiter(5, 10000);
  return limiter;
}

struct ControllerCounters {
  obs::Counter& corrupt = obs::counter("wlm.controller.corrupt_observations");
  obs::Counter& fallback = obs::counter("wlm.controller.fallback_activations");
};
// Registered when the first controller is built, so both counters export
// (at 0) from any run that builds one.
ControllerCounters& counters() {
  static ControllerCounters c;
  return c;
}
}  // namespace

void DegradedModeConfig::validate() const {
  ROPUS_REQUIRE(decay_intervals >= 1, "decay intervals must be >= 1");
  ROPUS_REQUIRE(spike_threshold_factor >= 0.0,
                "spike threshold factor must be >= 0");
}

Controller::Controller(const qos::Translation& tr, Policy policy,
                       std::size_t history_window,
                       const DegradedModeConfig& degraded)
    : translation_(tr),
      policy_(policy),
      history_window_(history_window),
      degraded_(degraded),
      last_basis_(tr.d_new_max) {
  tr.requirement.validate();
  degraded_.validate();
  ROPUS_REQUIRE(history_window_ >= 1, "history window must be >= 1");
  // The ring holds the window a reactive policy reads; kClairvoyant keeps
  // no history.
  const std::size_t window = policy_ == Policy::kReactive ? 1
                             : policy_ == Policy::kWindowedMax
                                 ? history_window_
                                 : 0;
  history_.assign(window, 0.0);
  (void)counters();
}

inline AllocationRequest Controller::request_for(double demand) const {
  ROPUS_REQUIRE(demand >= 0.0, "demand must be >= 0");
  const double capped = std::min(demand, translation_.d_new_max);
  const double d1 = std::min(capped, translation_.cos1_demand_cap());
  const double d2 = capped - d1;
  const double u_low = translation_.requirement.u_low;
  return AllocationRequest{d1 / u_low, d2 / u_low};
}

inline AllocationRequest Controller::step_measurement(double demand) {
  if (policy_ == Policy::kClairvoyant) {
    last_basis_ = demand;
    return request_for(demand);
  }

  // Reactive policies: request from history; the first interval has no
  // history and conservatively requests the maximum.
  const std::size_t size = history_.size();
  if (history_count_ == 0) {
    last_basis_ = translation_.d_new_max;
  } else if (policy_ == Policy::kReactive) {
    last_basis_ = history_[history_next_ == 0 ? size - 1 : history_next_ - 1];
  } else {  // kWindowedMax: the first maximum, oldest to newest
    std::size_t at = history_next_ >= history_count_
                         ? history_next_ - history_count_
                         : history_next_ + size - history_count_;
    double best = history_[at];
    for (std::size_t k = 1; k < history_count_; ++k) {
      at = at + 1 == size ? 0 : at + 1;
      if (best < history_[at]) best = history_[at];
    }
    last_basis_ = best;
  }
  const AllocationRequest request = request_for(last_basis_);

  const std::size_t window =
      policy_ == Policy::kReactive ? 1 : history_window_;
  history_[history_next_] = demand;
  history_next_ = history_next_ + 1 == size ? 0 : history_next_ + 1;
  history_count_ = std::min(history_count_ + 1, window);
  return request;
}

inline AllocationRequest Controller::fallback_request() const {
  switch (degraded_.fallback) {
    case FallbackPolicy::kHoldLast:
      return request_for(last_basis_);
    case FallbackPolicy::kDecayToMax: {
      const double start = std::min(last_basis_, translation_.d_new_max);
      const double ramp =
          std::min(1.0, static_cast<double>(consecutive_degraded_) /
                            static_cast<double>(degraded_.decay_intervals));
      return request_for(start + (translation_.d_new_max - start) * ramp);
    }
    case FallbackPolicy::kEntitlementFloor:
      return request_for(translation_.cos1_demand_cap());
  }
  return request_for(translation_.d_new_max);  // unreachable
}

void Controller::note_corrupt(double value) {
  counters().corrupt.add(1);
  if (corrupt_warn_limiter().allow()) {
    ROPUS_LOG(kWarn) << "controller rejected corrupt telemetry (value "
                     << value << ", suppressed "
                     << corrupt_warn_limiter().suppressed()
                     << " similar warnings)";
  }
}

void Controller::note_fallback_entry() {
  counters().fallback.add(1);
  if (fallback_warn_limiter().allow()) {
    ROPUS_LOG(kWarn) << "controller entered telemetry fallback (suppressed "
                     << fallback_warn_limiter().suppressed()
                     << " similar warnings)";
  }
}

inline AllocationRequest Controller::observe_one(const Observation& obs) {
  const ObservationClass cls = classify(obs);
  health_.intervals += 1;
  bool usable = false;
  switch (cls) {
    case ObservationClass::kOk:
      health_.ok += 1;
      usable = true;
      break;
    case ObservationClass::kStale:
      health_.stale += 1;
      usable = obs.staleness <= degraded_.stale_tolerance &&
               std::isfinite(obs.value) && obs.value >= 0.0;
      break;
    case ObservationClass::kMissing:
      health_.missing += 1;
      break;
    case ObservationClass::kCorrupt:
      health_.corrupt += 1;
      note_corrupt(obs.value);
      break;
  }

  if (usable) {
    consecutive_degraded_ = 0;
    return step_measurement(obs.value);
  }

  if (consecutive_degraded_ == 0) {
    health_.fallback_activations += 1;
    note_fallback_entry();
  }
  consecutive_degraded_ += 1;
  health_.fallback_intervals += 1;
  health_.longest_blackout =
      std::max(health_.longest_blackout, consecutive_degraded_);
  return fallback_request();
}

AllocationRequest Controller::observe(const Observation& obs) {
  return observe_one(obs);
}

void Controller::observe_run(std::span<const Observation> readings,
                             std::span<AllocationRequest> out,
                             std::span<std::uint8_t> fallback) {
  ROPUS_REQUIRE(out.size() == readings.size() &&
                    fallback.size() == readings.size(),
                "a run's readings, requests and flags must align");
  for (std::size_t k = 0; k < readings.size(); ++k) {
    out[k] = observe_one(readings[k]);
    fallback[k] = consecutive_degraded_ > 0 ? 1 : 0;
  }
}

void Controller::step_run(std::span<const double> demand,
                          std::span<AllocationRequest> out) {
  ROPUS_REQUIRE(out.size() == demand.size(),
                "a run's demands and requests must align");
  for (std::size_t k = 0; k < demand.size(); ++k) {
    out[k] = observe_one(Observation::ok(demand[k]));
  }
}

void Controller::reset() {
  history_count_ = 0;
  history_next_ = 0;
  last_basis_ = translation_.d_new_max;
  consecutive_degraded_ = 0;
}

Controller::Snapshot Controller::snapshot() const {
  Snapshot s{{}, last_basis_, consecutive_degraded_, health_};
  s.history.reserve(history_count_);
  const std::size_t size = history_.size();
  std::size_t at = history_next_ >= history_count_
                       ? history_next_ - history_count_
                       : history_next_ + size - history_count_;
  for (std::size_t k = 0; k < history_count_; ++k) {
    s.history.push_back(history_[at]);
    at = at + 1 == size ? 0 : at + 1;
  }
  return s;
}

void Controller::restore(const Snapshot& s) {
  // A restored history longer than the window is read whole by the next
  // step (as the vector it was saved from would be), so the ring grows to
  // hold it; the step after trims the count back to the window.
  if (s.history.size() > history_.size()) {
    history_.resize(s.history.size());
  }
  std::copy(s.history.begin(), s.history.end(), history_.begin());
  history_count_ = s.history.size();
  history_next_ = history_.empty() ? 0 : history_count_ % history_.size();
  last_basis_ = s.last_basis;
  consecutive_degraded_ = s.consecutive_degraded;
  health_ = s.health;
}

}  // namespace ropus::wlm
