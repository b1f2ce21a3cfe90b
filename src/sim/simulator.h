// The workload placement simulator of Section VI-A.
//
// It replays per-CoS allocation traces for a set of workloads sharing one
// server: capacity goes to CoS1 first, the remainder to CoS2. It measures
//   theta = min over weeks w and time-of-day slots t of
//           (sum over days x of satisfied CoS2) / (sum over days x of
//            requested CoS2),
// and tracks a FIFO backlog of deferred CoS2 allocation that must drain
// within the commitment's deadline. The smallest capacity at which a replay
// meets both parts of the commitment is the server's *required capacity*;
// the search computes it as an exact analytic floor from the CoS1 peak,
// theta and the deadline, without replaying (docs/algorithms.md §5).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qos/allocation.h"
#include "qos/requirements.h"
#include "trace/calendar.h"

namespace ropus::sim {

/// Aggregated per-slot allocation requests of a workload set (one server).
/// Building this once lets the capacity search re-evaluate cheaply.
struct Aggregate {
  trace::Calendar calendar{1, 5};
  std::vector<double> cos1;        // per-slot sum of CoS1 requests
  std::vector<double> cos2;        // per-slot sum of CoS2 requests
  double sum_peak_cos1 = 0.0;      // sum of per-workload CoS1 peaks
  double peak_cos1 = 0.0;          // peak of the aggregated CoS1 series
  double peak_total = 0.0;         // peak of the aggregated CoS1+CoS2 series
  std::size_t workloads = 0;

  bool empty() const { return workloads == 0; }
};

/// Aggregates a set of allocation traces; they must share one calendar.
/// An empty set yields an Aggregate with `workloads == 0` on `calendar`.
Aggregate aggregate_workloads(
    std::span<const qos::AllocationTrace* const> workloads,
    const trace::Calendar& calendar);

/// Non-owning view of an aggregate's per-slot series — the shape the replay
/// and the search consume. `Aggregate` converts implicitly; the incremental
/// engine (sim/incremental.h) builds views over its own per-server buffers,
/// so delta and batch verdicts run through literally the same search code.
struct AggregateView {
  const trace::Calendar* calendar = nullptr;
  std::span<const double> cos1;
  std::span<const double> cos2;
  double sum_peak_cos1 = 0.0;  // sum of per-workload CoS1 peaks
  double peak_cos1 = 0.0;      // peak of the aggregated CoS1 series
  std::size_t workloads = 0;

  AggregateView() = default;
  AggregateView(const Aggregate& agg)
      : calendar(&agg.calendar),
        cos1(agg.cos1),
        cos2(agg.cos2),
        sum_peak_cos1(agg.sum_peak_cos1),
        peak_cos1(agg.peak_cos1),
        workloads(agg.workloads) {}

  bool empty() const { return workloads == 0; }
};

/// Outcome of replaying an Aggregate against a fixed capacity.
struct Evaluation {
  bool cos1_satisfied = true;   // aggregate CoS1 never exceeded capacity
  double theta = 1.0;           // measured resource access probability
  bool deadline_met = true;     // all deferred CoS2 drained within deadline
  double max_backlog = 0.0;     // worst outstanding deferred CoS2 (CPUs)

  bool satisfies(const qos::CosCommitment& cos2) const {
    return cos1_satisfied && deadline_met && theta >= cos2.theta;
  }
};

/// Replays the aggregate at `capacity` under `cos2`, slot by slot (the
/// deadline is taken from the commitment; theta in the commitment is *not*
/// used here — compare via Evaluation::satisfies). This is the definition
/// of the required capacity: the floor the search computes is proven, and
/// tested, against it.
Evaluation evaluate(const AggregateView& agg, double capacity,
                    const qos::CosCommitment& cos2);

/// Per-(week, slot) diagnostics: where and when a server's commitment is
/// tightest. The theta statistic is a min over these groups, so an operator
/// chasing a violation needs exactly this breakdown.
struct ThetaBreakdown {
  double theta = 1.0;          // the min (same value evaluate() reports)
  std::size_t worst_week = 0;  // argmin group
  std::size_t worst_slot = 0;  // slot-of-day of the argmin group
  /// satisfied/requested per (week, slot) group, indexed
  /// [week * slots_per_day + slot]; 1.0 for groups with no CoS2 request.
  std::vector<double> group_ratios;
};

/// Computes the theta statistic with its full per-group breakdown. Requires
/// the aggregate's CoS1 series to fit under `capacity` (use evaluate()
/// first when unsure).
ThetaBreakdown theta_breakdown(const Aggregate& agg, double capacity);

/// Which constraint set a server's required capacity (docs/algorithms.md
/// §5).
struct Binding {
  enum class Kind : std::uint8_t {
    kNone,      // nothing hosted: the capacity is 0
    kCos1Peak,  // the aggregate CoS1 peak; theta and the deadline hold there
    kTheta,     // theta in the (week, slot-of-day) group
    kDeadline,  // the deadline of the CoS2 deferred at `slot`
    kLimit,     // the answer is the limit itself, or nothing fits within it
  };
  Kind kind = Kind::kNone;
  std::size_t week = 0;  // kTheta
  std::size_t slot = 0;  // kTheta: slot of day; kDeadline: trace slot
  double backlog = 0.0;  // kDeadline: the deferred CoS2 queued at `slot`
                         // at the required capacity (CPUs)
};

/// "cos1-peak", "theta w<week> s<slot>", "deadline t<slot> b<backlog>",
/// "limit" or "none".
std::string to_string(const Binding& binding);

/// The kind's name alone: "none", "cos1-peak", "theta", "deadline", "limit".
const char* kind_name(Binding::Kind kind);

/// Result of the required-capacity search for one server.
struct RequiredCapacity {
  bool fits = false;        // commitments satisfiable within `limit`
  double capacity = 0.0;    // smallest satisfying capacity when fits
  Binding binding;          // the constraint that set `capacity`
};

/// The capacity search grid step: 2^-5 = 0.03125 CPUs. Searching a fixed
/// grid instead of bisecting real endpoints makes the result a pure
/// function of the aggregate — the minimum of a fixed candidate set under a
/// monotone predicate — so the delta engine and the batch path land on the
/// same bits (docs/algorithms.md §11).
inline constexpr double kCapacityStep = 0x1p-5;

/// required_capacity() without a cap on its grid.
inline constexpr std::int64_t kUncapped =
    std::numeric_limits<std::int64_t>::max();

/// Section VI-A's search: first the peak-demand precheck (sum of per-
/// workload CoS1 peaks must not exceed `limit`), then the smallest
/// satisfying capacity among the grid candidates
///   { k * kCapacityStep : k * kCapacityStep in [CoS1 peak, limit] }
/// with `limit` itself as the last-resort candidate. An empty aggregate
/// trivially fits with required capacity 0.
///
/// A cap `max_k` (>= 0) whose grid point max_k * kCapacityStep lies below
/// `limit` ends the candidates there, the limit included: the answer is
/// the uncapped one when that is at or below the cap, and "does not fit"
/// otherwise. The precheck still holds the CoS1 peaks against `limit`. A
/// caller that only needs to know whether a server beats a given capacity
/// stops the floors at the first group or slot that exceeds it.
///
/// The answer is the largest of the CoS1-peak grid index, the theta floor
/// and the deadline floor (slo::theta_floor, slo::deadline_floor). On the
/// allocation grid (common/grid.h) each floor equals evaluate()'s predicate
/// bit for bit, so a grid answer costs no replay; only a `limit` off the
/// grid, tried when no grid point qualifies, is replayed. Off the grid the
/// floor is the exact-arithmetic answer, which can sit a step above what
/// the replay's kCapacityEps slack accepts. Requires `limit` times the
/// calendar length to stay below grid::kSumLimit, which keeps every sum of
/// the deadline floor exact.
RequiredCapacity required_capacity(const AggregateView& agg, double limit,
                                   const qos::CosCommitment& cos2,
                                   std::int64_t max_k = kUncapped);

}  // namespace ropus::sim
