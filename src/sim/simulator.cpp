#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "slo/kernel.h"

namespace ropus::sim {

namespace {
// Tolerance for "CoS1 exceeds capacity": the kernel's shared slack, so a
// required capacity found by the search is not rejected for a few ULPs on
// re-evaluation.
constexpr double kCapacityEps = slo::kCapacityEps;
}  // namespace

Aggregate aggregate_workloads(
    std::span<const qos::AllocationTrace* const> workloads,
    const trace::Calendar& calendar) {
  Aggregate agg;
  agg.calendar = calendar;
  agg.cos1.assign(calendar.size(), 0.0);
  agg.cos2.assign(calendar.size(), 0.0);
  for (const qos::AllocationTrace* w : workloads) {
    ROPUS_REQUIRE(w != nullptr, "null workload");
    ROPUS_REQUIRE(w->calendar() == calendar,
                  "workloads must share the server calendar");
    const std::span<const double> c1 = w->cos1();
    const std::span<const double> c2 = w->cos2();
    for (std::size_t i = 0; i < agg.cos1.size(); ++i) {
      agg.cos1[i] += c1[i];
      agg.cos2[i] += c2[i];
    }
    agg.sum_peak_cos1 += w->peak_cos1();
    agg.workloads += 1;
  }
  for (std::size_t i = 0; i < agg.cos1.size(); ++i) {
    agg.peak_cos1 = std::max(agg.peak_cos1, agg.cos1[i]);
    agg.peak_total = std::max(agg.peak_total, agg.cos1[i] + agg.cos2[i]);
  }
  return agg;
}

namespace {

/// evaluate()'s body, recording into `rec` when it is not null.
Evaluation evaluate_into(const AggregateView& agg, double capacity,
                         const qos::CosCommitment& cos2, obs::Recorder* rec) {
  ROPUS_REQUIRE(capacity >= 0.0, "capacity must be >= 0");
  cos2.validate();
  // Replay volume (docs/observability.md), in per-call relaxed counters.
  static obs::Counter& calls = obs::counter("sim.evaluate.calls");
  static obs::Counter& slots = obs::counter("sim.evaluate.slots");
  Evaluation ev;
  if (agg.empty()) return ev;
  calls.add(1);
  slots.add(agg.calendar->size());

  const trace::Calendar& cal = *agg.calendar;
  const std::size_t n = cal.size();

  // Flight recording: each evaluate() call opens its own section, so
  // repeated passes over the same slots stay separable in the recording.
  // Pool-aggregate records carry the exact satisfied CoS2.
  if (rec != nullptr) {
    rec->set_calendar(static_cast<double>(cal.minutes_per_sample()),
                      cal.slots_per_day());
    rec->begin_section();
  }
  const auto record = [&](std::size_t i, double s1, double s2, double granted,
                          double sat2) {
    if (rec == nullptr || !rec->should_record(i)) return;
    obs::SlotRecord r;
    r.slot = static_cast<std::uint32_t>(i);
    r.app = obs::kPoolApp;
    r.section = rec->section();
    r.telemetry = static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
    r.demand = s1 + s2;
    r.cos1 = s1;
    r.cos2 = s2;
    r.granted = granted;
    r.satisfied2 = sat2;  // exact — the watchdog's theta sums match
    rec->append(r);
  };

  // Per (week, slot-of-day) group sums and the deferral FIFO both live in
  // the slo kernel (src/slo/kernel.h), shared with the online watchdog.
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  slo::DeferralQueue backlog(cal.observations_in(cos2.deadline_minutes));
  for (std::size_t i = 0; i < n; ++i) {
    const double s1 = agg.cos1[i];
    const double s2 = agg.cos2[i];
    if (s1 > capacity + kCapacityEps) {
      // All of the capacity went to (part of) CoS1. CoS1 is the guaranteed
      // class; once violated the placement is invalid regardless of the
      // statistics, so stop early.
      record(i, s1, s2, capacity, 0.0);
      ev.cos1_satisfied = false;
      ev.theta = 0.0;
      ev.deadline_met = false;
      return ev;
    }
    const double available = std::max(0.0, capacity - s1);
    const double sat2 = slo::satisfied_cos2(capacity, s1, s2);
    theta.add(i, s2, sat2);
    record(i, s1, s2, s1 + sat2, sat2);

    // Spare capacity (after serving this slot's requests) drains the oldest
    // deferred demand first.
    backlog.drain(available - sat2);
    backlog.defer(i, s2 - sat2);
    ev.max_backlog = std::max(ev.max_backlog, backlog.total());
    if (backlog.overdue(i)) ev.deadline_met = false;
  }
  // Anything still queued past its deadline at the end of the trace counts.
  if (backlog.overdue_at_end(n)) ev.deadline_met = false;

  ev.theta = theta.theta();
  return ev;
}

}  // namespace

Evaluation evaluate(const AggregateView& agg, double capacity,
                    const qos::CosCommitment& cos2) {
  return evaluate_into(agg, capacity, cos2, obs::Recorder::active());
}

ThetaBreakdown theta_breakdown(const Aggregate& agg, double capacity) {
  ROPUS_REQUIRE(capacity >= 0.0, "capacity must be >= 0");
  ThetaBreakdown breakdown;
  if (agg.empty()) return breakdown;
  const trace::Calendar& cal = agg.calendar;
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const double s1 = agg.cos1[i];
    ROPUS_REQUIRE(s1 <= capacity + kCapacityEps,
                  "CoS1 exceeds capacity; breakdown is undefined");
    const double s2 = agg.cos2[i];
    theta.add(i, s2, slo::satisfied_cos2(capacity, s1, s2));
  }
  breakdown.group_ratios = theta.ratios();
  const slo::ThetaAccumulator::Worst worst = theta.worst();
  breakdown.theta = worst.theta;
  breakdown.worst_week = worst.group / cal.slots_per_day();
  breakdown.worst_slot = worst.group % cal.slots_per_day();
  return breakdown;
}

const char* kind_name(Binding::Kind kind) {
  switch (kind) {
    case Binding::Kind::kNone:
      return "none";
    case Binding::Kind::kCos1Peak:
      return "cos1-peak";
    case Binding::Kind::kTheta:
      return "theta";
    case Binding::Kind::kDeadline:
      return "deadline";
    case Binding::Kind::kLimit:
      return "limit";
  }
  return "none";
}

std::string to_string(const Binding& binding) {
  std::string out = kind_name(binding.kind);
  if (binding.kind == Binding::Kind::kTheta) {
    out += " w" + std::to_string(binding.week) + " s" +
           std::to_string(binding.slot);
  } else if (binding.kind == Binding::Kind::kDeadline) {
    char backlog[32];
    std::snprintf(backlog, sizeof(backlog), "%.2f", binding.backlog);
    out += " t" + std::to_string(binding.slot) + " b" + backlog;
  }
  return out;
}

RequiredCapacity required_capacity(const AggregateView& agg, double limit,
                                   const qos::CosCommitment& cos2,
                                   std::int64_t max_k) {
  ROPUS_REQUIRE(limit >= 0.0, "capacity limit must be >= 0");
  ROPUS_REQUIRE(max_k >= 0, "grid cap must be >= 0");
  static obs::Counter& searches = obs::counter("sim.required_capacity.searches");
  static obs::Histogram& seconds =
      obs::histogram("sim.required_capacity.seconds");
  searches.add(1);
  obs::ScopedTimer timer(seconds);

  RequiredCapacity result;
  if (agg.empty()) {
    result.fits = true;
    result.capacity = 0.0;
    return result;
  }
  const trace::Calendar& cal = *agg.calendar;
  // The deadline floor's windows sum up to a calendar's worth of spare
  // capacity; below kSumLimit those on-grid sums are exact.
  ROPUS_REQUIRE(limit * static_cast<double>(cal.size()) < grid::kSumLimit,
                "capacity limit times calendar length must stay below "
                "grid::kSumLimit");
  result.binding.kind = Binding::Kind::kLimit;

  // Section VI-A's precheck: the sum of per-workload CoS1 peaks may not
  // exceed the server's capacity, or the workloads do not fit.
  if (agg.sum_peak_cos1 > limit + kCapacityEps) return result;
  cos2.validate();

  // The candidate set: grid multiples k*step inside [CoS1 peak, limit],
  // with `limit` itself as the last resort when no grid point qualifies,
  // all cut at the cap. Each constraint holds from its own floor up, so
  // the answer is the largest of the three floors (docs/algorithms.md §5).
  constexpr double step = kCapacityStep;
  const bool capped = static_cast<double>(max_k) * step < limit;
  const std::int64_t k_lo =
      static_cast<std::int64_t>(std::ceil(agg.peak_cos1 / step));
  const std::int64_t k_hi =
      capped ? max_k : static_cast<std::int64_t>(std::floor(limit / step));
  if (k_lo <= k_hi) {
    const slo::GridFloor theta =
        slo::theta_floor(agg.cos1, agg.cos2, cal.slots_per_day(), cos2.theta,
                         step, k_lo, k_hi);
    if (theta.k <= k_hi) {
      const slo::GridFloor deadline = slo::deadline_floor(
          agg.cos1, agg.cos2, cal.observations_in(cos2.deadline_minutes),
          step, theta.k, k_hi);
      if (deadline.k <= k_hi) {
        result.fits = true;
        result.capacity = static_cast<double>(deadline.k) * step;
        if (deadline.raised) {
          result.binding.kind = Binding::Kind::kDeadline;
          result.binding.slot = deadline.where;
          result.binding.backlog = deadline.backlog;
        } else if (theta.raised) {
          result.binding.kind = Binding::Kind::kTheta;
          result.binding.week = theta.where / cal.slots_per_day();
          result.binding.slot = theta.where % cal.slots_per_day();
        } else {
          result.binding.kind = Binding::Kind::kCos1Peak;
        }
        return result;
      }
    }
  }

  // No grid point qualifies: an off-grid `limit` is the last candidate,
  // unless the cap is below it. Its replay records nothing; callers record
  // a real configuration by calling evaluate() directly.
  if (!capped && (k_lo > k_hi || limit > static_cast<double>(k_hi) * step)) {
    if (evaluate_into(agg, limit, cos2, nullptr).satisfies(cos2)) {
      result.fits = true;
      result.capacity = limit;
    }
  }
  return result;
}

}  // namespace ropus::sim
