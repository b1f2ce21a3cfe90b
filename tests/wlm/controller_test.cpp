#include "wlm/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "trace/demand_trace.h"

namespace ropus::wlm {
namespace {

using trace::Calendar;
using trace::DemandTrace;

qos::Translation make_translation(double theta) {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 100.0;
  const Calendar cal(1, 720);
  std::vector<double> v(cal.size(), 1.0);
  v[3] = 4.0;  // peak
  return qos::translate(DemandTrace("t", cal, v), req,
                        qos::CosCommitment{theta, 720.0});
}

TEST(Controller, ClairvoyantTracksCurrentDemand) {
  Controller c(make_translation(0.6), Policy::kClairvoyant);
  const AllocationRequest r = c.observe(Observation::ok(1.0));
  // Burst factor 2: total allocation = 2.0.
  EXPECT_NEAR(r.total(), 2.0, 1e-9);
}

TEST(Controller, ReactiveLagsByOneInterval) {
  Controller c(make_translation(0.6), Policy::kReactive);
  // First interval: no history -> conservative maximum request.
  const AllocationRequest first = c.observe(Observation::ok(1.0));
  EXPECT_NEAR(first.total(), 4.0 / 0.5, 1e-9);  // D_new_max / U_low
  // Second interval: based on the 1.0 measured previously.
  const AllocationRequest second = c.observe(Observation::ok(3.0));
  EXPECT_NEAR(second.total(), 2.0, 1e-9);
  // Third: based on 3.0.
  const AllocationRequest third = c.observe(Observation::ok(0.5));
  EXPECT_NEAR(third.total(), 6.0, 1e-9);
}

TEST(Controller, RequestsCapAtMaxAllocation) {
  Controller c(make_translation(0.6), Policy::kClairvoyant);
  const AllocationRequest r = c.observe(Observation::ok(100.0));
  EXPECT_NEAR(r.total(), 4.0 / 0.5, 1e-9);
}

TEST(Controller, SplitsAtBreakpoint) {
  const qos::Translation tr = make_translation(0.6);
  ASSERT_GT(tr.breakpoint_p, 0.0);
  Controller c(tr, Policy::kClairvoyant);
  const AllocationRequest r = c.observe(Observation::ok(4.0));
  EXPECT_NEAR(r.cos1, tr.cos1_demand_cap() / 0.5, 1e-9);
  EXPECT_NEAR(r.cos1 + r.cos2, 4.0 / 0.5, 1e-9);
}

TEST(Controller, HighThetaAllCos2) {
  Controller c(make_translation(0.95), Policy::kClairvoyant);
  const AllocationRequest r = c.observe(Observation::ok(2.0));
  EXPECT_DOUBLE_EQ(r.cos1, 0.0);
  EXPECT_GT(r.cos2, 0.0);
}

TEST(Controller, ResetForgetsHistory) {
  Controller c(make_translation(0.6), Policy::kReactive);
  (void)c.observe(Observation::ok(1.0));
  c.reset();
  const AllocationRequest r = c.observe(Observation::ok(2.0));
  EXPECT_NEAR(r.total(), 4.0 / 0.5, 1e-9);  // conservative again
}

TEST(Controller, NegativeDemandRoutesThroughCorruptPathNotThrow) {
  // Regression for the input guard: garbage demand used to throw out of the
  // control loop; it now counts as a corrupt observation and the interval is
  // served by the degraded-mode fallback.
  Controller c(make_translation(0.6), Policy::kClairvoyant);
  const AllocationRequest good = c.observe(Observation::ok(1.0));
  AllocationRequest r;
  ASSERT_NO_THROW(r = c.observe(Observation::ok(-1.0)));
  EXPECT_DOUBLE_EQ(r.total(), good.total());  // kHoldLast default
  EXPECT_EQ(c.health().corrupt, 1u);
  EXPECT_TRUE(c.in_fallback());
}

TEST(Controller, WindowedMaxTracksRecentPeak) {
  Controller c(make_translation(0.6), Policy::kWindowedMax, 3);
  (void)c.observe(Observation::ok(3.0));  // first interval: conservative max
  (void)c.observe(Observation::ok(1.0));
  (void)c.observe(Observation::ok(0.5));
  // History = {3, 1, 0.5}: request based on max = 3.
  const AllocationRequest r = c.observe(Observation::ok(0.2));
  EXPECT_NEAR(r.total(), 6.0, 1e-9);
  // History = {1, 0.5, 0.2}: the 3.0 has aged out.
  const AllocationRequest r2 = c.observe(Observation::ok(0.2));
  EXPECT_NEAR(r2.total(), 2.0, 1e-9);
}

TEST(Controller, WindowOfOneEqualsReactive) {
  Controller windowed(make_translation(0.6), Policy::kWindowedMax, 1);
  Controller reactive(make_translation(0.6), Policy::kReactive);
  for (double d : {1.0, 3.0, 0.5, 2.0, 0.0, 4.0}) {
    const AllocationRequest a = windowed.observe(Observation::ok(d));
    const AllocationRequest b = reactive.observe(Observation::ok(d));
    ASSERT_DOUBLE_EQ(a.total(), b.total()) << d;
    ASSERT_DOUBLE_EQ(a.cos1, b.cos1) << d;
  }
}

TEST(Controller, WindowedNeverRequestsLessThanReactiveWouldAtPeak) {
  // After a burst, the windowed controller keeps the allocation up for
  // `window` intervals while plain reactive drops immediately.
  Controller windowed(make_translation(0.6), Policy::kWindowedMax, 3);
  Controller reactive(make_translation(0.6), Policy::kReactive);
  (void)windowed.observe(Observation::ok(4.0));
  (void)reactive.observe(Observation::ok(4.0));
  (void)windowed.observe(Observation::ok(0.1));
  (void)reactive.observe(Observation::ok(0.1));
  const AllocationRequest w = windowed.observe(Observation::ok(0.1));
  const AllocationRequest r = reactive.observe(Observation::ok(0.1));
  EXPECT_GT(w.total(), r.total());
}

TEST(Controller, WindowedMaxWindowOfOneNeverSeesOlderPeaks) {
  // history_window == 1 must age a peak out after exactly one interval.
  Controller c(make_translation(0.6), Policy::kWindowedMax, 1);
  (void)c.observe(Observation::ok(4.0));  // first interval: conservative max
  // history = {4}
  const AllocationRequest r = c.observe(Observation::ok(0.5));
  EXPECT_NEAR(r.total(), 8.0, 1e-9);
  // history = {0.5}: peak aged out
  const AllocationRequest r2 = c.observe(Observation::ok(0.5));
  EXPECT_NEAR(r2.total(), 1.0, 1e-9);
}

TEST(Controller, WindowedMaxResetMidTraceDropsTheWindow) {
  Controller c(make_translation(0.6), Policy::kWindowedMax, 3);
  (void)c.observe(Observation::ok(4.0));
  (void)c.observe(Observation::ok(3.0));
  (void)c.observe(Observation::ok(2.0));
  c.reset();
  // First post-reset request is the conservative maximum, not max(history).
  const AllocationRequest r = c.observe(Observation::ok(1.0));
  EXPECT_NEAR(r.total(), 4.0 / 0.5, 1e-9);
}

TEST(Controller, WindowedMaxRefillsWindowAfterReset) {
  Controller c(make_translation(0.6), Policy::kWindowedMax, 3);
  (void)c.observe(Observation::ok(4.0));
  c.reset();
  (void)c.observe(Observation::ok(1.0));  // conservative; history = {1}
  // based on max{1} = 1; history = {1, 0.5}
  (void)c.observe(Observation::ok(0.5));
  const AllocationRequest r = c.observe(Observation::ok(0.25));
  // max{1, 0.5} = 1 -> total 2.0; the pre-reset 4.0 must not leak back in.
  EXPECT_NEAR(r.total(), 2.0, 1e-9);
}

TEST(Controller, RejectsZeroWindow) {
  EXPECT_THROW(Controller(make_translation(0.6), Policy::kWindowedMax, 0),
               InvalidArgument);
}

TEST(Controller, BurstFactorIsReciprocalOfUlow) {
  Controller c(make_translation(0.6), Policy::kClairvoyant);
  EXPECT_DOUBLE_EQ(c.burst_factor(), 2.0);
}

/// The controller as it was before its history ring: recent measurements
/// in a vector whose front is erased once it holds more than the window,
/// the windowed maximum taken by std::max_element. Classification is the
/// real controller's (unchanged by the ring).
class ErasingController {
 public:
  ErasingController(const qos::Translation& tr, Policy policy,
                    std::size_t window, const DegradedModeConfig& degraded)
      : judge_(tr, policy, window, degraded),
        tr_(tr),
        policy_(policy),
        window_(window),
        degraded_(degraded),
        last_basis_(tr.d_new_max) {}

  AllocationRequest observe(const Observation& obs) {
    const ObservationClass cls = judge_.classify(obs);
    const bool usable =
        cls == ObservationClass::kOk ||
        (cls == ObservationClass::kStale &&
         obs.staleness <= degraded_.stale_tolerance &&
         std::isfinite(obs.value) && obs.value >= 0.0);
    if (usable) {
      consecutive_ = 0;
      return step_measurement(obs.value);
    }
    consecutive_ += 1;
    switch (degraded_.fallback) {
      case FallbackPolicy::kHoldLast:
        return request_for(last_basis_);
      case FallbackPolicy::kDecayToMax: {
        const double start = std::min(last_basis_, tr_.d_new_max);
        const double ramp =
            std::min(1.0, static_cast<double>(consecutive_) /
                              static_cast<double>(degraded_.decay_intervals));
        return request_for(start + (tr_.d_new_max - start) * ramp);
      }
      case FallbackPolicy::kEntitlementFloor:
        return request_for(tr_.cos1_demand_cap());
    }
    return request_for(tr_.d_new_max);
  }

  void reset() {
    history_.clear();
    last_basis_ = tr_.d_new_max;
    consecutive_ = 0;
  }

  void restore(const Controller::Snapshot& s) {
    history_ = s.history;
    last_basis_ = s.last_basis;
    consecutive_ = s.consecutive_degraded;
  }

  const std::vector<double>& history() const { return history_; }
  double last_basis() const { return last_basis_; }

 private:
  AllocationRequest step_measurement(double demand) {
    if (policy_ == Policy::kClairvoyant) {
      last_basis_ = demand;
      return request_for(demand);
    }
    if (history_.empty()) {
      last_basis_ = tr_.d_new_max;
    } else if (policy_ == Policy::kReactive) {
      last_basis_ = history_.back();
    } else {
      last_basis_ = *std::max_element(history_.begin(), history_.end());
    }
    const AllocationRequest request = request_for(last_basis_);
    const std::size_t window = policy_ == Policy::kReactive ? 1 : window_;
    history_.push_back(demand);
    if (history_.size() > window) {
      history_.erase(history_.begin(),
                     history_.end() - static_cast<std::ptrdiff_t>(window));
    }
    return request;
  }

  AllocationRequest request_for(double demand) const {
    const double capped = std::min(demand, tr_.d_new_max);
    const double d1 = std::min(capped, tr_.cos1_demand_cap());
    const double u_low = tr_.requirement.u_low;
    return AllocationRequest{d1 / u_low, (capped - d1) / u_low};
  }

  Controller judge_;
  qos::Translation tr_;
  Policy policy_;
  std::size_t window_;
  DegradedModeConfig degraded_;
  std::vector<double> history_;
  double last_basis_;
  std::size_t consecutive_ = 0;
};

std::vector<std::uint64_t> request_bits(const AllocationRequest& r) {
  return {std::bit_cast<std::uint64_t>(r.cos1),
          std::bit_cast<std::uint64_t>(r.cos2)};
}

std::vector<std::uint64_t> history_bits(const std::vector<double>& h) {
  std::vector<std::uint64_t> out;
  for (const double v : h) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

Observation random_reading(Rng& rng) {
  switch (rng.uniform_index(10)) {
    case 0:
      return Observation::missing();
    case 1:
      return Observation{rng.uniform(0.0, 5.0), ObservationClass::kStale,
                         1 + rng.uniform_index(3)};
    case 2:
      return Observation::ok(std::numeric_limits<double>::quiet_NaN());
    case 3:  // signed zeros: the windowed maximum keeps the first of equals
      return Observation::ok(rng.bernoulli(0.5) ? -0.0 : 0.0);
    default:
      return Observation::ok(rng.uniform(0.0, 5.0));
  }
}

// The history ring, observe_run and step_run against the erasing vector
// and one-at-a-time observe(), under every policy, window and fallback,
// across resets and mid-stream snapshot/restore (including a restored
// history longer than the window, which the next step reads whole).
TEST(Controller, RingAndRunsMatchAnErasingHistory) {
  const qos::Translation tr = make_translation(0.6);
  const Policy policies[] = {Policy::kClairvoyant, Policy::kReactive,
                             Policy::kWindowedMax};
  const FallbackPolicy fallbacks[] = {FallbackPolicy::kHoldLast,
                                      FallbackPolicy::kDecayToMax,
                                      FallbackPolicy::kEntitlementFloor};
  std::uint64_t seed = 0;
  for (const Policy policy : policies) {
    for (std::size_t window = 1; window <= 6; ++window) {
      for (const FallbackPolicy fallback : fallbacks) {
        SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                     ", window " + std::to_string(window) + ", fallback " +
                     std::to_string(static_cast<int>(fallback)));
        DegradedModeConfig degraded;
        degraded.fallback = fallback;
        degraded.decay_intervals = 3;
        Rng rng(++seed);
        ErasingController want(tr, policy, window, degraded);
        Controller one(tr, policy, window, degraded);
        Controller runs(tr, policy, window, degraded);
        Controller steps(tr, policy, window, degraded);
        for (std::size_t round = 0; round < 40; ++round) {
          const std::size_t len = 1 + rng.uniform_index(12);
          std::vector<Observation> readings;
          std::vector<double> demand;
          for (std::size_t k = 0; k < len; ++k) {
            readings.push_back(random_reading(rng));
            demand.push_back(rng.uniform(0.0, 5.0));
          }
          std::vector<AllocationRequest> got(len);
          std::vector<std::uint8_t> flags(len, 7);
          runs.observe_run(readings, got, flags);
          for (std::size_t k = 0; k < len; ++k) {
            const AllocationRequest w = want.observe(readings[k]);
            ASSERT_EQ(request_bits(one.observe(readings[k])), request_bits(w))
                << "round " << round << ", reading " << k;
            ASSERT_EQ(request_bits(got[k]), request_bits(w));
            ASSERT_EQ(flags[k], one.in_fallback() ? 1 : 0);
          }
          // step_run on true demand against one ok reading at a time.
          Controller single = steps;
          std::vector<AllocationRequest> stepped(len);
          steps.step_run(demand, stepped);
          for (std::size_t k = 0; k < len; ++k) {
            const AllocationRequest w =
                single.observe(Observation::ok(demand[k]));
            ASSERT_EQ(request_bits(stepped[k]), request_bits(w));
          }
          ASSERT_EQ(history_bits(runs.snapshot().history),
                    history_bits(want.history()));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(runs.snapshot().last_basis),
                    std::bit_cast<std::uint64_t>(want.last_basis()));

          switch (rng.uniform_index(4)) {
            case 0:
              want.reset();
              one.reset();
              runs.reset();
              break;
            case 1: {  // resume from a snapshot on fresh controllers
              const Controller::Snapshot snap = runs.snapshot();
              one = Controller(tr, policy, window, degraded);
              runs = Controller(tr, policy, window, degraded);
              one.restore(snap);
              runs.restore(snap);
              want.restore(snap);
              break;
            }
            case 2: {  // a restored history longer than the window
              Controller::Snapshot snap = runs.snapshot();
              snap.history.clear();
              for (std::size_t k = 0; k < window + 3; ++k) {
                snap.history.push_back(rng.uniform(0.0, 5.0));
              }
              one.restore(snap);
              runs.restore(snap);
              want.restore(snap);
              ASSERT_EQ(history_bits(runs.snapshot().history),
                        history_bits(snap.history));
              break;
            }
            default:
              break;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ropus::wlm
