// Multi-window error-budget burn-rate alerting (the SRE-workbook rule
// shape) over R-Opus QoS verdict streams.
//
// A stream is a sequence of (slot, total, bad) observations — e.g. one
// per tick with `bad` = new watchdog SLO alerts, or one per admission
// decision with `bad` = rejects. The burn rate over a trailing window is
//     (bad / total over the window) / budget
// i.e. how many times faster than allowed the error budget is being
// spent. A rule fires only when BOTH its short and long windows exceed
// the threshold: the long window keeps one noisy tick from paging, the
// short window clears the alert promptly once the burn stops.
//
// Every stream evaluates the same constants: a 1% error budget and the
// two rules of kBurnRules. Windows are specified in minutes and scaled to
// tick-time through `minutes_per_slot`, so the same rules work for a live
// daemon (one slot per pool sample) and an offline replay. Observations
// are kept as cumulative points in a bounded ring, so evaluating a rule is
// O(points in the window) and memory never grows with uptime.
//
// Alert transitions are emitted three ways: typed BurnAlert records
// (bounded, for `stats` / report --alerts), registry metrics
// (obs.burnrate.<stream>.<rule>.fired counter and .active gauge), and —
// when tracing is enabled — an instant span tagged with the stream, so
// alerts line up with request spans on one timeline. Logging goes
// through log::Every so a sustained burn does not flood stderr.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace ropus::obs {

enum class BurnSeverity { kWarning, kCritical };

std::string_view burn_severity_name(BurnSeverity severity);

struct BurnRateRule {
  std::string_view name;
  double short_minutes;
  double long_minutes;
  /// Burn multiple both windows must reach for the rule to fire.
  double threshold;
  BurnSeverity severity;
};

/// The canonical two-rule page/ticket pair every stream evaluates:
/// fast = 5m+1h at 14.4x (exhausts a 30-day budget in ~2 days), critical;
/// slow = 1h+6h at 3x, warning.
inline constexpr BurnRateRule kBurnRules[] = {
    {"fast", 5.0, 60.0, 14.4, BurnSeverity::kCritical},
    {"slow", 60.0, 360.0, 3.0, BurnSeverity::kWarning},
};

/// One alert transition. `active` = true is a firing edge, false a clear.
struct BurnAlert {
  std::string stream;
  std::string rule;
  BurnSeverity severity = BurnSeverity::kCritical;
  std::uint64_t slot = 0;
  double burn_short = 0.0;
  double burn_long = 0.0;
  double threshold = 0.0;
  bool active = false;
};

/// "[burnrate] <stream>/<rule> FIRING at slot 12: short=20.1x long=15.2x
/// (threshold 14.4x, critical)" — shared by live logging and report.
std::string describe(const BurnAlert& alert);

/// Burn-rate evaluator for one stream. Not internally synchronized: the
/// serve daemon drives it from its single poll thread, offline replay
/// from one loop.
class BurnRate {
 public:
  /// Alert transition records retained; older ones are dropped counted.
  static constexpr std::size_t kMaxAlerts = 256;
  /// Tolerated bad fraction (the SLO's error budget): 99% good.
  static constexpr double kBudget = 0.01;
  /// Cumulative observation points retained (bounds memory and the
  /// longest honest window).
  static constexpr std::size_t kCapacity = 1024;

  /// `minutes_per_slot` is the wall-minutes one slot represents; a rule's
  /// windows are converted to slots as max(1, round(minutes /
  /// minutes_per_slot)). Throws InvalidArgument on an empty stream name or
  /// a `minutes_per_slot` that is not positive.
  BurnRate(std::string stream, double minutes_per_slot);

  /// Feeds the deltas since the previous observation for `slot` and
  /// re-evaluates every rule. Slots must be non-decreasing; repeated
  /// slots accumulate. Emits metrics/spans/logs on rule transitions.
  void observe(std::uint64_t slot, std::uint64_t total, std::uint64_t bad);

  std::size_t active_count() const;

  /// Currently-firing rules as alert records (slot = firing edge).
  std::vector<BurnAlert> active_alerts() const;

  /// Transition log, oldest first (bounded by kMaxAlerts).
  const std::vector<BurnAlert>& alerts() const { return alerts_; }
  std::uint64_t alerts_dropped() const { return alerts_dropped_; }

  const std::string& stream() const { return stream_; }
  std::uint64_t last_slot() const { return last_slot_; }

 private:
  struct Point {  // cumulative totals as of `slot`
    std::uint64_t slot = 0;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  struct RuleState {
    bool active = false;
    std::uint64_t since_slot = 0;
    double burn_short = 0.0;
    double burn_long = 0.0;
  };

  std::uint64_t window_slots(double minutes) const;
  /// Cumulative point at or before `slot`, newest such; nullptr when the
  /// whole ring is newer (window start predates retained history — the
  /// ring start is used instead by callers).
  double burn_over_slots(std::uint64_t slots) const;
  void record_transition(const BurnRateRule& rule, const RuleState& state,
                         bool firing);

  std::string stream_;
  double minutes_per_slot_;
  std::vector<Point> ring_;   // cumulative, bounded by kCapacity
  std::size_t head_ = 0;      // next write position once full
  std::array<RuleState, std::size(kBurnRules)> states_{};
  std::vector<BurnAlert> alerts_;
  std::uint64_t alerts_dropped_ = 0;
  std::uint64_t last_slot_ = 0;
  bool any_ = false;
  log::Every log_limit_{4, 16};
};

}  // namespace ropus::obs
