// Online SLO watchdog: streaming estimators over a flight-recorder stream.
//
// The paper's QoS contracts are time-series statements — U_low <= U_alloc
// <= U_high for M% of slots, contiguous degraded runs bounded by T_degr,
// and a CoS2 access probability theta measured as a min over (week,
// slot-of-day) groups. The watchdog maintains exactly those statistics
// *while records stream past*, emitting typed alerts at the first breach
// instead of waiting for a run-end report.
//
// Exactness: the band classification and theta group sums are the slo
// kernel's accumulators (src/slo/kernel.h) — the same objects
// wlm::run_event_schedule judges its grants with and sim::evaluate sums
// theta in — so on a stride-1 recording the final reports match the
// schedule's per-mode counts and the simulator's theta bit for bit by
// construction (tests/obs/watchdog_test.cpp and tests/golden/ hold this).
// The watchdog itself owns only what is online-specific: alert emission,
// run-open/rewrite bookkeeping, and section handling.
//
// Layering: obs depends only on common and slo, so the thresholds arrive as
// plain numbers (slo::Band) rather than qos::Requirement; `ropus_cli
// report` bridges the two.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/recorder.h"
#include "slo/kernel.h"

namespace ropus::obs {

/// The band thresholds of one qos::Requirement, as plain numbers.
using SloBand = slo::Band;

struct WatchdogConfig {
  SloBand normal;
  /// Band judged for records flagged SlotRecord::kFailureMode.
  SloBand failure;
  /// Pool CoS2 access-probability target.
  double theta = 0.95;
  double minutes_per_sample = 5.0;
  std::size_t slots_per_day = 288;
  /// Recording stride (so degraded-run start slots come out right).
  std::size_t stride = 1;
  /// Active slots per (app, mode) before the M% band-occupancy estimator
  /// may alert; 0 = one day. Too-early fractions are all noise.
  std::size_t band_warmup_slots = 0;
};

enum class AlertKind : std::uint8_t {
  kBandBudget,      // degraded fraction exceeded the M_degr budget
  kTDegr,           // contiguous degraded run exceeded T_degr
  kTheta,           // a (week, slot) group's ratio fell below theta
  kCos1Overcommit,  // guaranteed allocation not fully granted
};

enum class AlertSeverity : std::uint8_t { kWarning, kCritical };

const char* alert_kind_name(AlertKind kind);

struct Alert {
  AlertKind kind = AlertKind::kBandBudget;
  AlertSeverity severity = AlertSeverity::kWarning;
  std::uint16_t app = 0;       // kPoolApp for pool-level (theta) alerts
  std::uint16_t section = 0;
  bool failure_mode = false;
  std::uint32_t first_slot = 0;      // first breaching slot
  std::uint32_t duration_slots = 0;  // breach length so far (recorded slots)
  double value = 0.0;                // observed statistic at the breach
  double threshold = 0.0;            // the bound it crossed
};

/// One-line human description (app referenced by id; `ropus_cli report`
/// substitutes names from the recording).
std::string describe(const Alert& alert);

/// Per (app, mode) band attainment: the kernel's counts, field-for-field
/// what wlm::ComplianceReport holds, so the schedule's and the streaming
/// results are directly comparable. `satisfies(band)` is the zero-slack verdict.
using BandReport = slo::BandCounts;

/// The checkpoint codec of a band accumulator's state, shared by the
/// watchdog's and the serve arbiter's checkpoints: one JSON object of its
/// counts and run lengths. read_band_state() refuses a count that is not
/// one (json::read_count) with IoError.
void write_band_state(json::Writer& w, const slo::BandAccumulator& acc);
void read_band_state(const json::Value& v, slo::BandAccumulator& acc);

class Watchdog {
 public:
  /// Alerts retained; overflow is counted, not stored.
  static constexpr std::size_t kMaxAlerts = 4096;

  explicit Watchdog(WatchdogConfig config);

  /// Consumes one record. Records must arrive in nondecreasing slot order
  /// per application within a section (the natural recording order);
  /// sections may follow each other in any order but must not interleave
  /// per app. A section change resets every run (a new trial is a new
  /// world). Pool-aggregate records (kPoolApp) feed only the theta
  /// estimator — band occupancy and overcommit are per-application
  /// statements and are not judged on the aggregate.
  void observe(const SlotRecord& record);

  /// Closes runs still open at end-of-stream (a breach spanning the end of
  /// the trace keeps its alert; durations become final). Idempotent.
  void finish();

  /// Applications seen, ascending (kPoolApp last when present).
  std::vector<std::uint16_t> apps() const;

  /// Band attainment for (app, mode); nullptr when no such slots streamed.
  const BandReport* report(std::uint16_t app, bool failure_mode) const;

  /// Pool theta: min over sections of the per-section (week, slot) group
  /// minimum. 1.0 when nothing requested CoS2. Pool-aggregate records (the
  /// exact sums of sim::evaluate) are preferred; when a recording has none,
  /// the per-app satisfied2 estimates stand in.
  double theta() const;

  /// True when theta comes from exact pool-aggregate sums rather than
  /// per-app estimates.
  bool theta_exact() const { return !theta_pool_.empty(); }

  struct ThetaPoint {
    std::uint16_t section = 0;
    double theta = 1.0;
  };
  /// Per-section theta, ascending by section — the theta trajectory over a
  /// faultsim campaign's trials (or an evaluation's passes).
  std::vector<ThetaPoint> theta_trajectory() const;

  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Alerts beyond kMaxAlerts (counted, not stored).
  std::uint64_t alerts_dropped() const { return alerts_dropped_; }

  /// Serializes the complete mutable state (per-app accumulators, theta
  /// group sums, alerts, open-run bookkeeping) as one JSON object, for
  /// the serve daemon's checkpoints. The config is not included — the
  /// restoring side must construct the watchdog with the same config.
  /// Doubles round-trip exactly (Writer uses to_chars; parse uses
  /// from_chars), so a restored watchdog continues bit-identically.
  void save_state(json::Writer& w) const;

  /// Restores state saved by save_state() into a freshly-constructed
  /// watchdog. Throws IoError on a malformed document, on a count that is
  /// not one, and on an open alert that is not among the restored alerts.
  void load_state(const json::Value& v);

 private:
  struct ModeState {
    /// Counts and run lengths (the kernel owns the arithmetic).
    slo::BandAccumulator acc;
    bool tdegr_active = false;       // current run already breached T_degr
    std::ptrdiff_t open_tdegr = -1;  // alerts_ index, -1 when dropped/none
    bool band_alerted = false;

    explicit ModeState(double minutes_per_sample)
        : acc(minutes_per_sample) {}
  };
  struct AppState {
    ModeState mode[2];  // [normal, failure]
    bool seen = false;
    std::uint16_t section = 0;
    bool overcommit_active = false;
    std::ptrdiff_t open_overcommit = -1;
    std::uint32_t last_overcommit_slot = 0;

    explicit AppState(double minutes_per_sample)
        : mode{ModeState(minutes_per_sample),
               ModeState(minutes_per_sample)} {}
  };

  void end_run(ModeState& mode);
  void classify(ModeState& mode, const SlotRecord& r, const SloBand& band);
  void check_band_budget(ModeState& mode, const SlotRecord& r,
                         const SloBand& band);
  void check_overcommit(AppState& app, const SlotRecord& r);
  void update_theta(const SlotRecord& r);
  std::ptrdiff_t emit(Alert alert);

  const std::map<std::uint16_t, slo::ThetaAccumulator>& theta_sections()
      const {
    return theta_pool_.empty() ? theta_app_ : theta_pool_;
  }

  WatchdogConfig config_;
  std::map<std::uint16_t, AppState> apps_;
  // Per-section kernel accumulators: exact pool sums (sim::evaluate's
  // records) and the per-app satisfied2 estimates.
  std::map<std::uint16_t, slo::ThetaAccumulator> theta_pool_;
  std::map<std::uint16_t, slo::ThetaAccumulator> theta_app_;
  std::vector<Alert> alerts_;
  std::uint64_t alerts_dropped_ = 0;
  bool finished_ = false;
};

}  // namespace ropus::obs
