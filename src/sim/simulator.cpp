#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "slo/kernel.h"

namespace ropus::sim {

namespace {
// Tolerance for "CoS1 exceeds capacity": the kernel's shared slack, so a
// required capacity found by the search is not rejected for a few ULPs on
// re-evaluation.
constexpr double kCapacityEps = slo::kCapacityEps;

// Instrumentation (docs/observability.md): the replay slot loop and the
// capacity search dominate every solver and bench, so their volume is
// tracked with per-call relaxed counters — cheap enough for the hot path.
obs::Counter& evaluate_calls() {
  static obs::Counter& c = obs::counter("sim.evaluate.calls");
  return c;
}
obs::Counter& evaluate_slots() {
  static obs::Counter& c = obs::counter("sim.evaluate.slots");
  return c;
}
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

Evaluation evaluate(const AggregateView& agg, double capacity,
                    const qos::CosCommitment& cos2) {
  ROPUS_REQUIRE(capacity >= 0.0, "capacity must be >= 0");
  cos2.validate();
  Evaluation ev;
  if (agg.empty()) return ev;
  evaluate_calls().add(1);
  evaluate_slots().add(agg.calendar->size());

  const trace::Calendar& cal = *agg.calendar;
  const std::size_t deadline_slots = cal.observations_in(cos2.deadline_minutes);
  const std::size_t n = cal.size();
  const std::size_t spd = cal.slots_per_day();
  const double* const s1v = agg.cos1.data();
  const double* const s2v = agg.cos2.data();

  // Flight recording: each evaluate() call opens its own section, so the
  // capacity search's repeated passes over the same slots stay separable in
  // the recording. Pool-aggregate records carry the exact satisfied CoS2.
  obs::Recorder* const rec = obs::Recorder::active();
  if (rec != nullptr) {
    rec->set_calendar(static_cast<double>(cal.minutes_per_sample()),
                      cal.slots_per_day());
    rec->begin_section();
  }

  // Per (week, slot-of-day) group sums and the deferral FIFO both live in
  // the slo kernel (src/slo/kernel.h), shared with the online watchdog.
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  slo::DeferralQueue backlog(deadline_slots);

  // Scratch for the vectorized day path (stack-friendly, one day at most).
  double satbuf[1024];
  std::vector<double> satheap;
  double* sat_run = satbuf;
  if (spd > std::size(satbuf)) {
    satheap.resize(spd);
    sat_run = satheap.data();
  }

  std::size_t i = 0;
  while (i < n) {
    // The remainder of the current calendar day: groups are consecutive
    // within it, so pure days become one ThetaAccumulator::add_run.
    const std::size_t end = std::min(n, i + (spd - i % spd));

    // A day is "pure" when no slot violates CoS1, no slot leaves a CoS2
    // deficit above the epsilon defer() would enqueue, the backlog is empty
    // going in (nothing to drain or expire), and nothing is recording. On
    // such a day the sequential loop below degenerates to theta adds of
    // slo::satisfied_cos2; computing exactly those values in a vector pass
    // is bit-identical by construction.
    bool pure = rec == nullptr && backlog.empty();
    if (pure) {
      double m1 = 0.0;
      double mt = 0.0;
      for (std::size_t j = i; j < end; ++j) {
        m1 = std::max(m1, s1v[j]);
        mt = std::max(mt, s1v[j] + s2v[j]);
      }
      pure = m1 <= capacity + kCapacityEps && mt <= capacity + kCapacityEps;
    }
    if (pure) {
      for (std::size_t j = i; j < end; ++j) {
        sat_run[j - i] = slo::satisfied_cos2(capacity, s1v[j], s2v[j]);
      }
      theta.add_run(i, std::span(s2v + i, end - i),
                    std::span(sat_run, end - i));
      i = end;
      continue;
    }

    for (; i < end; ++i) {
      const double s1 = s1v[i];
      const double s2 = s2v[i];
      if (s1 > capacity + kCapacityEps) {
      ev.cos1_satisfied = false;
      if (rec != nullptr && rec->should_record(i)) {
        obs::SlotRecord record;
        record.slot = static_cast<std::uint32_t>(i);
        record.app = obs::kPoolApp;
        record.section = rec->section();
        record.telemetry = static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
        record.demand = s1 + s2;
        record.cos1 = s1;
        record.cos2 = s2;
        record.granted = capacity;  // all of it went to (part of) CoS1
        record.satisfied2 = 0.0;
        rec->append(record);
      }
      // CoS1 is the guaranteed class; once violated the placement is
      // invalid regardless of the statistics, so stop early.
      ev.theta = 0.0;
      ev.deadline_met = false;
      return ev;
    }
    const double available = std::max(0.0, capacity - s1);
    const double sat2 = slo::satisfied_cos2(capacity, s1, s2);
    const double deficit = s2 - sat2;

    theta.add(i, s2, sat2);

    if (rec != nullptr && rec->should_record(i)) {
      obs::SlotRecord record;
      record.slot = static_cast<std::uint32_t>(i);
      record.app = obs::kPoolApp;
      record.section = rec->section();
      record.telemetry = static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
      record.demand = s1 + s2;
      record.cos1 = s1;
      record.cos2 = s2;
      record.granted = s1 + sat2;
      record.satisfied2 = sat2;  // exact — the watchdog's theta sums match
      rec->append(record);
    }

    // Spare capacity (after serving this slot's requests) drains the oldest
    // deferred demand first.
    backlog.drain(available - sat2);
    backlog.defer(i, deficit);
    ev.max_backlog = std::max(ev.max_backlog, backlog.total());
    if (backlog.overdue(i)) ev.deadline_met = false;
    }
  }
  // Anything still queued past its deadline at the end of the trace counts.
  if (backlog.overdue_at_end(n)) ev.deadline_met = false;

  ev.theta = theta.theta();
  return ev;
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

double capacity_grid_step(double tolerance) {
  ROPUS_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  int e = 0;
  std::frexp(tolerance, &e);  // tolerance = m * 2^e with m in [0.5, 1)
  return std::ldexp(1.0, e - 1);
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

CapacityFloor capacity_floor(const AggregateView& agg, double limit,
                             const qos::CosCommitment& cos2,
                             double tolerance) {
  ROPUS_REQUIRE(!agg.empty(), "the capacity floor needs a workload");
  cos2.validate();
  const trace::Calendar& cal = *agg.calendar;
  CapacityFloor floor;
  floor.step = capacity_grid_step(tolerance);
  const std::int64_t k_lo =
      static_cast<std::int64_t>(std::ceil(agg.peak_cos1 / floor.step));
  const std::int64_t k_hi =
      static_cast<std::int64_t>(std::floor(limit / floor.step));
  floor.theta_binding.kind = Binding::Kind::kCos1Peak;

  const slo::GridFloor theta =
      slo::theta_floor(agg.cos1, agg.cos2, cal.slots_per_day(), cos2.theta,
                       floor.step, k_lo, k_hi);
  if (theta.raised) {
    floor.theta_binding.kind = Binding::Kind::kTheta;
    floor.theta_binding.week = theta.where / cal.slots_per_day();
    floor.theta_binding.slot = theta.where % cal.slots_per_day();
  }
  floor.theta_k = theta.k;
  floor.k = theta.k;
  floor.binding = floor.theta_binding;
  if (floor.k > k_hi) return floor;

  const slo::GridFloor deadline = slo::deadline_floor(
      agg.cos1, agg.cos2, cal.observations_in(cos2.deadline_minutes),
      floor.step, theta.k, k_hi);
  if (deadline.raised) {
    floor.k = deadline.k;
    floor.binding = Binding{};
    floor.binding.kind = Binding::Kind::kDeadline;
    floor.binding.slot = deadline.where;
    floor.binding.backlog = deadline.backlog;
  }
  return floor;
}

RequiredCapacity required_capacity(const AggregateView& agg, double limit,
                                   const qos::CosCommitment& cos2,
                                   double tolerance) {
  ROPUS_REQUIRE(limit >= 0.0, "capacity limit must be >= 0");
  ROPUS_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  static obs::Counter& searches = obs::counter("sim.required_capacity.searches");
  static obs::Histogram& seconds =
      obs::histogram("sim.required_capacity.seconds");
  searches.add(1);
  obs::ScopedTimer timer(seconds);
  // The search may probe capacities that fail (the step below a deadline
  // floor, a gallop); recording those passes would flood a flight recording
  // with pool sections whose theta says nothing about any accepted
  // configuration. Suppress recording for the whole search — callers record
  // a real configuration by calling evaluate() directly.
  struct RecorderPause {
    obs::Recorder* const rec = obs::Recorder::active();
    RecorderPause() { obs::Recorder::set_active(nullptr); }
    ~RecorderPause() { obs::Recorder::set_active(rec); }
  } pause;

  RequiredCapacity result;
  if (agg.empty()) {
    result.fits = true;
    result.capacity = 0.0;
    return result;
  }
  result.binding.kind = Binding::Kind::kLimit;

  // Section VI-A's precheck: the sum of per-workload CoS1 peaks may not
  // exceed the server's capacity, or the workloads do not fit.
  if (agg.sum_peak_cos1 > limit + kCapacityEps) return result;

  // The candidate set: grid multiples k*step inside [CoS1 peak, limit],
  // with `limit` itself as the last resort when even the topmost grid point
  // falls short. The predicate "satisfies at capacity C" is monotone in C
  // (more capacity never hurts CoS1, theta, or the deferral deadline), so
  // the minimum satisfying candidate is unique.
  const double step = capacity_grid_step(tolerance);
  const std::int64_t k_lo =
      static_cast<std::int64_t>(std::ceil(agg.peak_cos1 / step));
  const std::int64_t k_hi =
      static_cast<std::int64_t>(std::floor(limit / step));
  const auto at_grid = [&](std::int64_t k) {
    return evaluate(agg, static_cast<double>(k) * step, cos2);
  };
  const auto finish = [&](double capacity, const Evaluation& at,
                          const Binding& binding) {
    result.fits = true;
    result.capacity = capacity;
    result.at_capacity = at;
    result.binding = binding;
    return result;
  };
  // No grid candidate satisfies: `limit` itself is the last resort when no
  // grid point reaches the CoS1 peak or it lies above the topmost one.
  const auto at_limit = [&] {
    if (k_lo > k_hi || limit > static_cast<double>(k_hi) * step) {
      const Evaluation at = evaluate(agg, limit, cos2);
      if (at.satisfies(cos2)) return finish(limit, at, result.binding);
    }
    return result;
  };
  if (k_lo > k_hi) return at_limit();

  const CapacityFloor floor = capacity_floor(agg, limit, cos2, tolerance);
  // Theta fails exactly below theta_k, and at every grid point when it
  // passes the top.
  if (floor.theta_k > k_hi) return at_limit();
  // What set the answer: the CoS1 peak or theta at theta_k, the deadline
  // above it.
  const auto binding_at = [&](std::int64_t k) {
    if (k == floor.theta_k) return floor.theta_binding;
    if (floor.binding.kind == Binding::Kind::kDeadline) return floor.binding;
    Binding deadline;  // the floor's replay failed: no slot to name
    deadline.kind = Binding::Kind::kDeadline;
    return deadline;
  };

  std::int64_t k = std::min(floor.k, k_hi);
  Evaluation at = at_grid(k);
  if (at.satisfies(cos2)) {
    // The deadline floor holds in real arithmetic; the replay's epsilons
    // can pass a step lower. Below theta_k nothing passes.
    while (k > floor.theta_k) {
      const Evaluation below = at_grid(k - 1);
      if (!below.satisfies(cos2)) break;
      --k;
      at = below;
    }
    return finish(static_cast<double>(k) * step, at, binding_at(k));
  }

  // The floor's replay failed: gallop up to a satisfying grid point, then
  // bisect.
  Evaluation at_hi;
  const std::int64_t hi = slo::first_passing(k, k_hi, [&](std::int64_t p) {
    const Evaluation e = at_grid(p);
    if (!e.satisfies(cos2)) return false;
    at_hi = e;
    return true;
  });
  if (hi > k_hi) return at_limit();
  return finish(static_cast<double>(hi) * step, at_hi, binding_at(hi));
}

}  // namespace ropus::sim
