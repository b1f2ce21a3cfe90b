// DemandTrace: one application workload's time-varying CPU demand on the
// shared pool, one observation per calendar slot, in units of CPUs
// (fractional values allowed — "the measured utilization over the previous
// 5 minutes is 66% of 3 CPUs, then the demand is 2 CPU", Section II).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/calendar.h"

namespace ropus::trace {

class DemandTrace {
 public:
  /// Takes ownership of `values`; size must equal `calendar.size()` and all
  /// entries must be finite and non-negative. A -0.0 entry is stored as
  /// +0.0, so no trace holds a negative zero and an order statistic of its
  /// values has one sign whatever algorithm finds it.
  DemandTrace(std::string name, Calendar calendar, std::vector<double> values);

  /// A zero-demand trace on the given calendar (useful as an accumulator).
  static DemandTrace zeros(std::string name, Calendar calendar);

  const std::string& name() const { return name_; }
  const Calendar& calendar() const { return calendar_; }
  std::size_t size() const { return values_.size(); }
  double operator[](std::size_t i) const { return values_[i]; }
  std::span<const double> values() const { return values_; }

  double at(std::size_t week, std::size_t day, std::size_t slot) const {
    return values_[calendar_.index(week, day, slot)];
  }

  /// Peak demand D_max over the whole trace.
  double peak() const;

  /// Element-wise sum with another trace on the same calendar.
  DemandTrace& operator+=(const DemandTrace& other);

  /// Overwrites this trace with `source` scaled element-wise by `factors`
  /// (finite, >= 0, aligned with the source; a -0.0 product is stored as
  /// +0.0, as the constructor does). Reuses this trace's storage —
  /// the allocation-free form faultsim's per-trial surge scaling needs; no
  /// allocation at all once the buffer has the source's size.
  void assign_scaled(const DemandTrace& source,
                     std::span<const double> factors);

  /// Overwrites this trace with the element-wise sum of `traces` (non-empty,
  /// shared calendar), reusing this trace's storage and keeping its name —
  /// the reuse-buffer counterpart of aggregate().
  void assign_aggregate(std::span<const DemandTrace> traces);

  /// Returns a copy scaled by `factor` (>= 0).
  DemandTrace scaled(double factor) const;

  /// Renames in place (handy when deriving traces).
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
  Calendar calendar_;
  std::vector<double> values_;
};

/// Element-wise aggregate of several traces sharing a calendar. Requires a
/// non-empty list.
DemandTrace aggregate(std::span<const DemandTrace> traces, std::string name);

/// First `weeks` weeks of a trace as a new trace (1 <= weeks <= total).
DemandTrace head_weeks(const DemandTrace& t, std::size_t weeks);

/// Last `weeks` weeks of a trace as a new trace (1 <= weeks <= total).
/// head_weeks(t, k) ++ tail_weeks(t, W-k) partitions t — the split the
/// backtest uses to train on history and validate on the held-out week.
DemandTrace tail_weeks(const DemandTrace& t, std::size_t weeks);

/// Weeks [first, first + count) of a trace as a new trace; the rolling
/// window the medium-term repair loop re-plans from.
DemandTrace weeks_slice(const DemandTrace& t, std::size_t first,
                        std::size_t count);

}  // namespace ropus::trace
