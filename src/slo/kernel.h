// The SLO kernel: the single source of truth for the paper's contract
// arithmetic. Every layer that judges a run against a QoS contract — the
// workload manager's event schedule, which judges each slot it grants
// (wlm), the serve arbiter's ticks, the placement simulator's theta and
// deferral accounting (sim), the online watchdog's streaming estimators
// (obs), faultsim's per-trial breach count, and the placement objective
// (via the simulator) — routes through the types in this header, so the band
// classification, M%/T_degr budgets, per-(week, slot-of-day) theta, and
// CoS1-overcommit rules are stated exactly once: here, or in kernel.cpp.
// The per-slot rules (grant_scales, classify_band, BandAccumulator::
// observe) are defined inline in this header, so per-slot loops step
// through them without a call.
//
// Both shapes are exposed: batch functions over `std::span<const double>`
// for offline whole-trace checks, and incremental accumulators for the
// replays and online streams. The batch path is implemented ON TOP of the
// accumulators, so offline and online results are bit-for-bit identical by
// construction (tests/golden/ pins the pre-extraction values).
//
// Layering: slo depends only on common. Thresholds arrive as plain numbers
// (`Band`), not qos::Requirement — the qos layer converts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "common/error.h"

namespace ropus::slo {

/// Relative slack on the U_high / U_degr comparisons: a hair of tolerance
/// absorbs grant-scaling rounding at exactly the thresholds. Shared by every
/// consumer — changing it anywhere means changing it everywhere, which is
/// the point.
inline constexpr double kRelEps = 1e-9;

/// Absolute slack on capacity comparisons (CoS1-fits checks and deferral
/// residuals), so a capacity found by the search is not rejected for a
/// few ULPs on re-evaluation.
inline constexpr double kCapacityEps = 1e-9;

/// The band thresholds of one QoS requirement, as plain numbers.
struct Band {
  double u_high = 0.66;
  double u_degr = 0.9;
  double m_percent = 97.0;
  /// Max contiguous degraded minutes; <= 0 means unconstrained.
  double t_degr_minutes = 0.0;

  /// The M_degr budget: percent of active slots allowed above U_high.
  double m_degr_percent() const { return 100.0 - m_percent; }
};

/// How one observation classified against a Band.
enum class BandClass : std::uint8_t {
  kIdle,        // zero demand (always compliant)
  kAcceptable,  // U_alloc <= U_high
  kDegraded,    // U_high < U_alloc <= U_degr
  kViolating,   // U_alloc > U_degr, or demand with no grant
};

/// Classification counts of a run against a Band — the shared shape of
/// wlm::ComplianceReport and the watchdog's per-(app, mode) reports.
struct BandCounts {
  std::size_t intervals = 0;
  std::size_t idle = 0;
  std::size_t acceptable = 0;
  std::size_t degraded = 0;
  std::size_t violating = 0;
  /// Of `degraded` / `violating`, the slots judged while the workload
  /// manager served a telemetry fallback rather than a measurement.
  std::size_t degraded_telemetry = 0;
  std::size_t violating_telemetry = 0;
  double longest_degraded_minutes = 0.0;

  /// Fraction of non-idle intervals that were degraded or worse.
  double degraded_fraction() const {
    const std::size_t active = intervals - idle;
    return active > 0 ? static_cast<double>(degraded + violating) /
                            static_cast<double>(active)
                      : 0.0;
  }

  /// True when the counts satisfy `band` with `slack_percent` extra headroom
  /// on the M_degr budget (controller reaction lag costs a little).
  bool satisfies(const Band& band, double slack_percent = 0.0) const;
};

/// Classification of a single observation against a Band — the stateless
/// core of BandAccumulator::observe, which returns the class it counted
/// (the serve arbiter's per-tick verdicts print it). Inline, like observe()
/// and grant_scales(), because the event schedule judges once per
/// (app, slot).
inline BandClass classify_band(double demand, double granted,
                               const Band& band) {
  if (demand <= 0.0) return BandClass::kIdle;
  const double u = granted > 0.0 ? demand / granted
                                 : std::numeric_limits<double>::infinity();
  if (u <= band.u_high * (1.0 + kRelEps)) return BandClass::kAcceptable;
  if (u <= band.u_degr * (1.0 + kRelEps)) return BandClass::kDegraded;
  return BandClass::kViolating;
}

/// Streaming band classifier: one observation at a time, with the idle /
/// run-reset rules and the T_degr run bookkeeping. A slot judged in the
/// other mode (an app alternates as servers fail and are repaired) is
/// reported via end_run(), which terminates the current degraded run
/// without counting an interval.
class BandAccumulator {
 public:
  explicit BandAccumulator(double minutes_per_sample = 5.0)
      : minutes_per_sample_(minutes_per_sample) {}

  /// Classifies and counts one observation. `on_fallback` attributes a
  /// degraded/violating slot to the telemetry pipeline.
  BandClass observe(double demand, double granted, const Band& band,
                    bool on_fallback = false) {
    counts_.intervals += 1;
    const BandClass cls = classify_band(demand, granted, band);
    switch (cls) {
      case BandClass::kIdle:
        counts_.idle += 1;
        run_ = 0;
        return cls;
      case BandClass::kAcceptable:
        counts_.acceptable += 1;
        run_ = 0;
        return cls;
      case BandClass::kDegraded:
        counts_.degraded += 1;
        if (on_fallback) counts_.degraded_telemetry += 1;
        break;
      case BandClass::kViolating:
        counts_.violating += 1;
        if (on_fallback) counts_.violating_telemetry += 1;
        break;
    }
    run_ += 1;
    longest_ = std::max(longest_, run_);
    counts_.longest_degraded_minutes =
        static_cast<double>(longest_) * minutes_per_sample_;
    return cls;
  }

  /// Ends the current degraded run (masked-out slot, section change, or
  /// end of stream). Counts are unaffected.
  void end_run() { run_ = 0; }

  const BandCounts& counts() const { return counts_; }

  /// Length in slots of the degraded-or-worse run ending at the last
  /// observation (0 after an acceptable/idle slot or end_run()).
  std::size_t current_run() const { return run_; }
  std::size_t longest_run() const { return longest_; }
  double minutes_per_sample() const { return minutes_per_sample_; }

  /// The complete mutable state, for checkpointing: restore() on a
  /// fresh accumulator (same minutes_per_sample) resumes the stream with
  /// subsequent observations classified identically.
  struct State {
    BandCounts counts;
    std::size_t run = 0;
    std::size_t longest = 0;
  };
  State state() const { return State{counts_, run_, longest_}; }
  void restore(const State& s) {
    counts_ = s.counts;
    run_ = s.run;
    longest_ = s.longest;
  }

 private:
  BandCounts counts_;
  double minutes_per_sample_;
  std::size_t run_ = 0;
  std::size_t longest_ = 0;
};

/// Batch classification of a whole series, one observe() per slot — the
/// reference the streaming judges are tested against. `granted` must align
/// with `demand`.
BandCounts accumulate_bands(std::span<const double> demand,
                            std::span<const double> granted, const Band& band,
                            double minutes_per_sample);

/// Days per theta week; mirrors trace::Calendar::kDaysPerWeek without
/// depending on trace.
inline constexpr std::size_t kDaysPerWeek = 7;

/// The CoS2 a server of `capacity` CPUs serves in the slot itself: CoS1
/// first, CoS2 from the remainder, `min(cos2, max(0, capacity - cos1))`.
/// The one statement of same-slot service: the placement replay's theta
/// sums and deferral deficits, the theta breakdown and both capacity floors
/// below compute it here.
inline double satisfied_cos2(double capacity, double cos1, double cos2) {
  // std::min(cos2, std::max(0.0, capacity - cos1)), bit for bit, written
  // as comparisons of values so that loops over it vectorize.
  const double spare = capacity - cos1;
  const double available = 0.0 < spare ? spare : 0.0;
  return available < cos2 ? available : cos2;
}

/// Streaming theta statistic: per-(week, slot-of-day) sums of requested and
/// satisfied CoS2, with theta = min over groups of satisfied/requested
/// (groups with nothing requested count as 1.0). Group index is
/// `week * slots_per_day + slot_of_day`; groups grow on demand, or are
/// pre-sized by the (weeks, slots_per_day) constructor so the fixed-trace
/// path never reallocates.
class ThetaAccumulator {
 public:
  explicit ThetaAccumulator(std::size_t slots_per_day);
  ThetaAccumulator(std::size_t weeks, std::size_t slots_per_day);

  std::size_t slots_per_day() const { return slots_per_day_; }
  std::size_t groups() const { return requested_.size(); }

  /// The (week, slot-of-day) group of a linear slot index.
  std::size_t group_of(std::size_t slot) const {
    return (slot / (kDaysPerWeek * slots_per_day_)) * slots_per_day_ +
           slot % slots_per_day_;
  }

  /// Adds one observation's CoS2 request/satisfaction to its group.
  void add(std::size_t slot, double requested, double satisfied);

  /// satisfied/requested for a group; 1.0 when nothing was requested there
  /// (or the group has not been touched).
  double ratio(std::size_t group) const {
    if (group >= requested_.size() || requested_[group] <= 0.0) return 1.0;
    return satisfied_[group] / requested_[group];
  }

  /// The theta statistic: ascending-group min, 1.0 when nothing requested.
  double theta() const;

  struct Worst {
    double theta = 1.0;
    std::size_t group = 0;  // argmin (first strict minimum in group order)
  };
  /// theta together with its argmin group.
  Worst worst() const;

  /// All group ratios (1.0 for untouched groups) — the per-group breakdown.
  std::vector<double> ratios() const;

  double requested(std::size_t group) const {
    return group < requested_.size() ? requested_[group] : 0.0;
  }
  double satisfied(std::size_t group) const {
    return group < satisfied_.size() ? satisfied_[group] : 0.0;
  }

  /// Raw per-group sums, for checkpointing. Both spans have groups()
  /// elements.
  std::span<const double> requested_raw() const { return requested_; }
  std::span<const double> satisfied_raw() const { return satisfied_; }

  /// Restores the per-group sums saved by requested_raw()/satisfied_raw().
  /// Throws InvalidArgument when the spans disagree in length.
  void restore(std::span<const double> requested,
               std::span<const double> satisfied);

 private:
  std::size_t slots_per_day_;
  std::vector<double> requested_;
  std::vector<double> satisfied_;
};

/// The smallest k in (lo, k_max] at which the monotone predicate `passes`
/// holds, given that it fails at `lo`: gallops up from `lo`, then bisects.
/// k_max + 1 when nothing up to k_max passes. The last call that passed was
/// at the returned k.
template <typename Pred>
std::int64_t first_passing(std::int64_t lo, std::int64_t k_max, Pred passes) {
  std::int64_t hi = k_max + 1;
  for (std::int64_t d = 1; lo < k_max; d *= 2) {
    const std::int64_t p = std::min(k_max, lo + d);
    if (passes(p)) {
      hi = p;
      break;
    }
    lo = p;
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// The group bound: a (week, slot-of-day) group whose `days` members
/// request `requested` CPUs of CoS2 in all can hold `theta` at capacity C
/// only if theta * requested <= days * C, because no member is served more
/// than C. Returns floor(theta * requested / (days * step)) - 1: every grid
/// index at which such a group holds lies strictly above it, and so does
/// every capacity at which a replay's theta holds it, in floating point as
/// in real arithmetic (docs/algorithms.md §5). Requires nonnegative CoS1
/// and CoS2; -1 when nothing is requested.
std::int64_t theta_group_bound(double requested, std::size_t days,
                               double theta, double step);

/// A floor of a capacity search over the grid { k * step }.
struct GridFloor {
  std::int64_t k = 0;      // the floor's grid index
  bool raised = false;     // a constraint lifted k above the starting index
  std::size_t where = 0;   // theta: the group that set k; deadline: the slot
  double backlog = 0.0;    // deadline: deferred CoS2 at `where` at k * step
};

/// The theta floor: the smallest k in [k_min, k_max] at which a replay at
/// capacity k * step measures theta >= `theta` over the per-slot series
/// `cos1`/`cos2` (k_max + 1 when none does). Requires k_min * step to cover
/// the CoS1 peak, so no slot's CoS1 is cut.
///
/// Theta counts only same-slot service, so each group's ratio depends on
/// the capacity alone and is nondecreasing in it; the floor is the largest
/// of the per-group thresholds. Each group's satisfied sum is computed as
/// ThetaAccumulator sums it during a replay — satisfied_cos2() of each
/// member, added in slot order — so the floor agrees with the replay's
/// theta predicate bit for bit and needs no confirming replay. One
/// contiguous pass per week sums every group at the floor the week starts
/// with, which then rises to the week's group bound (theta_group_bound)
/// when that is higher. Only a group that fails at the week's start is
/// looked at again, strided: at the risen floor, then searched upwards.
/// `where` is the group (week * slots_per_day + slot of day) that set k.
/// Requires nonnegative CoS1 and CoS2.
GridFloor theta_floor(std::span<const double> cos1,
                      std::span<const double> cos2, std::size_t slots_per_day,
                      double theta, double step, std::int64_t k_min,
                      std::int64_t k_max);

/// FIFO backlog of deferred CoS2 allocation with a drain deadline: a
/// deferred entry must be fully served within `deadline_slots` of its
/// creation. Spare capacity drains oldest-first; residuals below
/// kCapacityEps count as served.
class DeferralQueue {
 public:
  struct Entry {
    std::size_t created;
    double remaining;
  };

  explicit DeferralQueue(std::size_t deadline_slots)
      : deadline_slots_(deadline_slots) {}

  /// Serves up to `spare` CPUs of the oldest deferred demand.
  void drain(double spare);

  /// Queues this slot's unsatisfied CoS2 (ignored below kCapacityEps).
  void defer(std::size_t slot, double deficit);

  /// True when the oldest entry has outlived its deadline at
  /// `current_slot` and still has unserved demand — the FIFO front is the
  /// oldest, so it alone needs checking.
  bool overdue(std::size_t current_slot) const {
    return !entries_.empty() &&
           entries_.front().created + deadline_slots_ <= current_slot &&
           entries_.front().remaining > kCapacityEps;
  }

  /// True when anything still queued at end-of-trace (`trace_size` slots)
  /// is past its deadline.
  bool overdue_at_end(std::size_t trace_size) const;

  /// Outstanding deferred CoS2 (CPUs).
  double total() const { return total_; }

  bool empty() const { return entries_.empty(); }

  std::size_t deadline_slots() const { return deadline_slots_; }

  /// The queued entries oldest-first, for checkpointing.
  std::vector<Entry> entries() const {
    return std::vector<Entry>(entries_.begin(), entries_.end());
  }

  /// Replaces the queue contents with entries saved by entries(), in
  /// creation order, and the running total saved by total(). The total is
  /// taken as given: drain() leaves sub-epsilon residue in total() that
  /// the sum of remainders lacks, and an exact restore must resume
  /// byte-identically.
  void restore(std::span<const Entry> entries, double total);

 private:
  std::deque<Entry> entries_;
  double total_ = 0.0;
  std::size_t deadline_slots_;
};

/// The deadline floor: the smallest k in [k_min, k_max] at which the CoS2
/// deferred at every slot j drains within `deadline_slots`, in real
/// arithmetic (k_max + 1 when none does). Requires k_min * step to cover
/// the CoS1 peak.
///
/// At capacity C a slot defers the CoS2 that satisfied_cos2() leaves
/// unserved, or leaves spare capacity, never both. The deferral FIFO's
/// backlog after slot j is the Lindley recursion
/// B_j = max(0, B_{j-1} + deficit_j - spare_j), and slot j's deferral meets
/// its deadline iff B_j fits in the spare of slots j+1..j+deadline_slots
/// (slots whose deadline falls past the end of the series are exempt, as
/// in a replay). One pass checks each slot at the running floor; while
/// nothing is queued it skips the slots that serve all of their own CoS2,
/// and it sums a busy period's window when the period opens. A slot that
/// does not fit lifts the floor to the smallest
/// k at which its busy period's backlog would fit, and the backlog is
/// re-run from the busy period's start at the new capacity. Every lift is
/// a lower bound on the answer and every checked slot stays satisfied as k
/// rises, so the pass ends on the exact real-arithmetic floor. On the
/// 2^-20 allocation grid, with per-slot values and k_max * step times the
/// series length below grid::kSumLimit, every sum is exact and the floor is
/// the replay's deadline predicate bit for bit (docs/algorithms.md §5).
/// `where` and `backlog` name the slot that set k.
GridFloor deadline_floor(std::span<const double> cos1,
                         std::span<const double> cos2,
                         std::size_t deadline_slots, double step,
                         std::int64_t k_min, std::int64_t k_max);

/// One server's grant for one slot under the two allocation priorities of
/// Section II: CoS1 requests are granted first, scaled pro rata only when
/// their sum exceeds capacity, and CoS2 requests share whatever capacity
/// remains. Every pool loop (the wlm event schedule, the serve arbiter)
/// grants through this rule.
struct GrantScales {
  double cos1 = 1.0;  // factor on every CoS1 request
  double cos2 = 1.0;  // factor on every CoS2 request
  /// The server's granted totals: min(CoS1 requested, capacity) and CoS2
  /// requested x `cos2` — what a CoS2 deferral backlog drains and defers
  /// from.
  double cos1_granted = 0.0;
  double cos2_granted = 0.0;

  /// One app's grant for its (cos1, cos2) request on this server.
  double grant(double cos1_request, double cos2_request) const {
    return cos1_request * cos1 + cos2_request * cos2;
  }
};

/// The grant for a server of `capacity` CPUs facing aggregate requests
/// `cos1_requested` / `cos2_requested`. Throws InvalidArgument unless all
/// three are >= 0.
inline GrantScales grant_scales(double capacity, double cos1_requested,
                                double cos2_requested) {
  ROPUS_REQUIRE(capacity >= 0.0 && cos1_requested >= 0.0 &&
                    cos2_requested >= 0.0,
                "grant inputs must be >= 0");
  GrantScales scales;
  if (cos1_requested > capacity) {
    scales.cos1 = capacity > 0.0 ? capacity / cos1_requested : 0.0;
  }
  scales.cos1_granted = std::min(cos1_requested, capacity);
  if (cos2_requested > 0.0) {
    scales.cos2 =
        std::min(1.0, (capacity - scales.cos1_granted) / cos2_requested);
  }
  scales.cos2_granted = cos2_requested * scales.cos2;
  return scales;
}

/// True when a grant scales back the guaranteed class itself: CoS1 is
/// served first, so `granted < cos1` (beyond rounding slack) means the
/// guarantee was overcommitted.
inline bool cos1_overcommitted(double cos1, double granted) {
  return cos1 > 0.0 && granted < cos1 * (1.0 - kRelEps);
}

/// True when a run's longest degraded stretch exceeds a T_degr budget;
/// `t_degr_minutes <= 0` means unconstrained. A hair of absolute slack
/// keeps a run of exactly T_degr / minutes_per_sample slots from counting
/// as a breach — faultsim's per-trial breach counter uses this form (the
/// zero-slack strict form lives in BandCounts::satisfies).
inline bool t_degr_breached(const BandCounts& counts, double t_degr_minutes) {
  return t_degr_minutes > 0.0 &&
         counts.longest_degraded_minutes > t_degr_minutes + 1e-9;
}

}  // namespace ropus::slo
