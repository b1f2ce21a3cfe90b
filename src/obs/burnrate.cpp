#include "obs/burnrate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::obs {

std::string_view burn_severity_name(BurnSeverity severity) {
  return severity == BurnSeverity::kCritical ? "critical" : "warning";
}

std::string describe(const BurnAlert& alert) {
  char buf[64];
  std::string out = "[burnrate] " + alert.stream + "/" + alert.rule;
  out += alert.active ? " FIRING" : " resolved";
  std::snprintf(buf, sizeof(buf), " at slot %llu: short=%.1fx long=%.1fx",
                static_cast<unsigned long long>(alert.slot), alert.burn_short,
                alert.burn_long);
  out += buf;
  std::snprintf(buf, sizeof(buf), " (threshold %.1fx, ", alert.threshold);
  out += buf;
  out += burn_severity_name(alert.severity);
  out += ")";
  return out;
}

BurnRate::BurnRate(std::string stream, double minutes_per_slot)
    : stream_(std::move(stream)), minutes_per_slot_(minutes_per_slot) {
  if (stream_.empty()) {
    throw InvalidArgument("burnrate stream must be non-empty");
  }
  if (!(minutes_per_slot_ > 0.0)) {
    throw InvalidArgument("burnrate minutes_per_slot must be positive");
  }
}

std::uint64_t BurnRate::window_slots(double minutes) const {
  const double slots = minutes / minutes_per_slot_;
  return static_cast<std::uint64_t>(std::max(1LL, std::llround(slots)));
}

double BurnRate::burn_over_slots(std::uint64_t slots) const {
  if (!any_ || ring_.empty()) return 0.0;
  const bool full = ring_.size() >= kCapacity;
  const Point& last = ring_[full ? (head_ + ring_.size() - 1) % ring_.size()
                                 : ring_.size() - 1];
  const std::uint64_t start_slot =
      last.slot >= slots ? last.slot - slots : 0;
  // Baseline = newest cumulative point at or before the window start.
  // Before the ring wraps, missing baseline means the stream started
  // inside the window, so cumulative-from-zero is exact; after it wraps,
  // the window is clipped to retained history (the oldest point).
  Point base{};
  bool found = false;
  for (std::size_t i = ring_.size(); i-- > 0;) {
    const Point& p =
        full ? ring_[(head_ + i) % ring_.size()] : ring_[i];
    if (p.slot <= start_slot) {
      base = p;
      found = true;
      break;
    }
  }
  if (!found && full) {
    base = ring_[head_];  // oldest retained
    if (base.slot >= last.slot) base = Point{};
  }
  const std::uint64_t total =
      last.total >= base.total ? last.total - base.total : 0;
  const std::uint64_t bad = last.bad >= base.bad ? last.bad - base.bad : 0;
  const double frac =
      static_cast<double>(bad) / static_cast<double>(std::max<std::uint64_t>(1, total));
  return frac / kBudget;
}

void BurnRate::record_transition(const BurnRateRule& rule,
                                 const RuleState& state, bool firing) {
  BurnAlert alert;
  alert.stream = stream_;
  alert.rule = rule.name;
  alert.severity = rule.severity;
  alert.slot = last_slot_;
  alert.burn_short = state.burn_short;
  alert.burn_long = state.burn_long;
  alert.threshold = rule.threshold;
  alert.active = firing;

  const std::string base =
      "obs.burnrate." + stream_ + "." + std::string(rule.name);
  if (firing) counter(base + ".fired").add(1);
  gauge(base + ".active").set(firing ? 1.0 : 0.0);

  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) {
    // An instant marker on the trace timeline, tagged so it joins the
    // request spans of the same stream.
    SpanRecord span;
    span.name = firing ? "burnrate.fire" : "burnrate.resolve";
    span.tag = stream_ + "/" + std::string(rule.name);
    span.start_seconds = monotonic_seconds();
    span.duration_seconds = 0.0;
    tracer.append(std::move(span));
  }

  if (log_limit_.allow()) {
    ROPUS_LOG(kWarn) << describe(alert);
  }

  if (alerts_.size() >= kMaxAlerts) {
    alerts_.erase(alerts_.begin());
    alerts_dropped_ += 1;
  }
  alerts_.push_back(std::move(alert));
}

void BurnRate::observe(std::uint64_t slot, std::uint64_t total,
                       std::uint64_t bad) {
  if (any_ && slot < last_slot_) {
    throw InvalidArgument("burnrate slots must be non-decreasing");
  }
  Point next;
  if (!ring_.empty()) {
    const bool full = ring_.size() >= kCapacity;
    next = ring_[full ? (head_ + ring_.size() - 1) % ring_.size()
                      : ring_.size() - 1];
  }
  next.slot = slot;
  next.total += total;
  next.bad += bad;
  if (ring_.size() < kCapacity) {
    ring_.push_back(next);
  } else {
    ring_[head_] = next;
    head_ = (head_ + 1) % ring_.size();
  }
  last_slot_ = slot;
  any_ = true;

  for (std::size_t i = 0; i < states_.size(); ++i) {
    const BurnRateRule& rule = kBurnRules[i];
    RuleState& state = states_[i];
    state.burn_short = burn_over_slots(window_slots(rule.short_minutes));
    state.burn_long = burn_over_slots(window_slots(rule.long_minutes));
    const bool firing = state.burn_short >= rule.threshold &&
                        state.burn_long >= rule.threshold;
    if (firing == state.active) continue;
    state.active = firing;
    if (firing) state.since_slot = slot;
    record_transition(rule, state, firing);
  }
}

std::size_t BurnRate::active_count() const {
  std::size_t n = 0;
  for (const RuleState& state : states_) {
    if (state.active) ++n;
  }
  return n;
}

std::vector<BurnAlert> BurnRate::active_alerts() const {
  std::vector<BurnAlert> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].active) continue;
    const BurnRateRule& rule = kBurnRules[i];
    BurnAlert alert;
    alert.stream = stream_;
    alert.rule = rule.name;
    alert.severity = rule.severity;
    alert.slot = states_[i].since_slot;
    alert.burn_short = states_[i].burn_short;
    alert.burn_long = states_[i].burn_long;
    alert.threshold = rule.threshold;
    alert.active = true;
    out.push_back(std::move(alert));
  }
  return out;
}

}  // namespace ropus::obs
