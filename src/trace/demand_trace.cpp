#include "trace/demand_trace.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace ropus::trace {

DemandTrace::DemandTrace(std::string name, Calendar calendar,
                         std::vector<double> values)
    : name_(std::move(name)),
      calendar_(calendar),
      values_(std::move(values)) {
  ROPUS_REQUIRE(values_.size() == calendar_.size(),
                "trace length must match calendar (" + name_ + ")");
  for (double& v : values_) {
    ROPUS_REQUIRE(std::isfinite(v) && v >= 0.0,
                  "demand observations must be finite and >= 0 (" + name_ +
                      ")");
    v += 0.0;  // -0.0 + 0.0 is +0.0; every other value is unchanged
  }
}

DemandTrace DemandTrace::zeros(std::string name, Calendar calendar) {
  return DemandTrace(std::move(name), calendar,
                     std::vector<double>(calendar.size(), 0.0));
}

double DemandTrace::peak() const { return stats::max_value(values_); }

DemandTrace& DemandTrace::operator+=(const DemandTrace& other) {
  ROPUS_REQUIRE(calendar_ == other.calendar_,
                "cannot add traces on different calendars");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] += other.values_[i];
  }
  return *this;
}

void DemandTrace::assign_scaled(const DemandTrace& source,
                                std::span<const double> factors) {
  ROPUS_REQUIRE(factors.size() == source.size(),
                "scale factors must align with the source trace");
  for (double f : factors) {
    ROPUS_REQUIRE(std::isfinite(f) && f >= 0.0,
                  "scale factors must be finite and >= 0");
  }
  name_ = source.name_;
  calendar_ = source.calendar_;
  values_.resize(source.values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = source.values_[i] * factors[i] + 0.0;
  }
}

void DemandTrace::assign_aggregate(std::span<const DemandTrace> traces) {
  ROPUS_REQUIRE(!traces.empty(), "aggregate of zero traces");
  const DemandTrace& first = traces.front();
  for (const DemandTrace& t : traces) {
    ROPUS_REQUIRE(t.calendar() == first.calendar(),
                  "cannot add traces on different calendars");
  }
  calendar_ = first.calendar_;
  values_.assign(first.values_.begin(), first.values_.end());
  for (const DemandTrace& t : traces.subspan(1)) *this += t;
}

DemandTrace DemandTrace::scaled(double factor) const {
  ROPUS_REQUIRE(factor >= 0.0, "scale factor must be >= 0");
  std::vector<double> out(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out[i] = values_[i] * factor;
  }
  return DemandTrace(name_, calendar_, std::move(out));
}

DemandTrace head_weeks(const DemandTrace& t, std::size_t weeks) {
  const Calendar& cal = t.calendar();
  ROPUS_REQUIRE(weeks >= 1 && weeks <= cal.weeks(),
                "weeks must be in [1, total weeks]");
  const Calendar out_cal(weeks, cal.minutes_per_sample());
  std::vector<double> values(
      t.values().begin(),
      t.values().begin() + static_cast<std::ptrdiff_t>(out_cal.size()));
  return DemandTrace(t.name(), out_cal, std::move(values));
}

DemandTrace tail_weeks(const DemandTrace& t, std::size_t weeks) {
  const Calendar& cal = t.calendar();
  ROPUS_REQUIRE(weeks >= 1 && weeks <= cal.weeks(),
                "weeks must be in [1, total weeks]");
  const Calendar out_cal(weeks, cal.minutes_per_sample());
  std::vector<double> values(
      t.values().end() - static_cast<std::ptrdiff_t>(out_cal.size()),
      t.values().end());
  return DemandTrace(t.name(), out_cal, std::move(values));
}

DemandTrace weeks_slice(const DemandTrace& t, std::size_t first,
                        std::size_t count) {
  const Calendar& cal = t.calendar();
  ROPUS_REQUIRE(count >= 1, "slice needs at least one week");
  ROPUS_REQUIRE(first + count <= cal.weeks(), "slice beyond the trace");
  const Calendar out_cal(count, cal.minutes_per_sample());
  const auto begin =
      t.values().begin() +
      static_cast<std::ptrdiff_t>(first * cal.slots_per_week());
  std::vector<double> values(
      begin, begin + static_cast<std::ptrdiff_t>(out_cal.size()));
  return DemandTrace(t.name(), out_cal, std::move(values));
}

DemandTrace aggregate(std::span<const DemandTrace> traces, std::string name) {
  ROPUS_REQUIRE(!traces.empty(), "aggregate of zero traces");
  DemandTrace total = DemandTrace::zeros(std::move(name),
                                         traces.front().calendar());
  total.assign_aggregate(traces);
  return total;
}

}  // namespace ropus::trace
