// The serve daemon's deterministic core: admitted applications, their
// degraded-mode WLM controllers, the per-server grant rule and CoS2
// deferral backlogs, the streaming SLO watchdog, and the admission policy
// — everything whose outputs must be byte-identical across a crash and
// restore.
//
// The arbiter never reads the wall clock, never consults a thread count,
// and never randomizes: its replies are a pure function of the sequence of
// accepted messages. That is the crash-safety contract — the daemon
// journals every accepted message, so replaying the journal through a
// fresh arbiter (or a checkpoint plus the journal tail) reproduces the
// exact verdict stream. Overload shedding, timing, and I/O live one layer
// up in daemon.h and may vary freely without touching verdict bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/watchdog.h"
#include "qos/allocation.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "sim/incremental.h"
#include "slo/kernel.h"
#include "trace/demand_trace.h"
#include "wlm/controller.h"

namespace ropus::serve {

struct ServeConfig {
  /// Pool-level band for the watchdog's alerts; per-app verdicts use the
  /// band each app was admitted with. The pool never runs failure mode, so
  /// the watchdog judges no slot against a failure-mode band.
  slo::Band normal;
  qos::CosCommitment cos2{0.95, 60.0};
  double minutes_per_sample = 5.0;
  std::size_t slots_per_day = 288;
  std::size_t servers = 13;
  double server_cpus = 16.0;
  wlm::Policy policy = wlm::Policy::kReactive;
  std::size_t history_window = 3;
  wlm::DegradedModeConfig degraded;
  AdmissionPolicy admission;
  /// Largest forward slot gap filled as missing telemetry; a larger jump is
  /// rejected as kSlotGapTooLarge.
  std::size_t max_slot_gap = 288;
  /// Throws InvalidArgument on nonsensical settings.
  void validate() const;
};

class Arbiter {
 public:
  explicit Arbiter(const ServeConfig& config);

  /// Handles one parsed message; returns the reply lines (without
  /// newlines) in emission order. Throws ProtocolViolation on inputs the
  /// protocol rejects (stale slot, oversized gap); those change no state.
  /// `state_changed` (when non-null) reports whether the message must be
  /// journaled for replay.
  std::vector<std::string> handle(const Message& msg,
                                  bool* state_changed = nullptr);

  /// The end-of-run summary line: per-app band counts (each against its
  /// own admitted band), pool theta, alert totals.
  std::string summary() const;

  /// An admitted app's demand profile: the JSON array text a checkpoint's
  /// profile store keeps, and the CRC-32 of that text, its key in the
  /// store. Both are computed once, when the app is built; a profile never
  /// changes after admission.
  struct Profile {
    std::shared_ptr<const std::string> text;
    std::uint32_t digest = 0;
  };
  /// Each admitted app's profile, in admission order (save_state's order).
  std::vector<Profile> profiles() const;

  /// Serializes the complete state as one JSON object (checkpoint
  /// payload), naming the i-th app's profile `profile_names[i]` instead of
  /// writing it. Restore via load_state on an arbiter built with the same
  /// config.
  void save_state(json::Writer& w,
                  const std::vector<std::string>& profile_names) const;

  /// The text stored under a profile name; throws IoError for a name that
  /// resolves to nothing.
  using ProfileResolver = std::function<std::shared_ptr<const std::string>(
      const std::string& name)>;
  /// Restores save_state's output, resolving each app's profile name
  /// through `resolve` and keeping the resolved text as the app's profile
  /// text. With an empty `resolve`, each profile is the inline JSON array
  /// of a v2 checkpoint.
  void load_state(const json::Value& v, const ProfileResolver& resolve);

  std::size_t next_slot() const { return next_slot_; }
  std::size_t app_count() const { return apps_.size(); }
  std::size_t departed_count() const { return departed_; }
  const ServeConfig& config() const { return config_; }
  const obs::Watchdog& watchdog() const { return watchdog_; }
  /// Total CoS2 work currently deferred across all servers (CPU-slots).
  double backlog_total() const;

  /// Identified requests the arbiter remembers for retry idempotency. A
  /// client that resends an id within this window gets the original reply
  /// bytes instead of a second application of the request.
  static constexpr std::size_t kIdCacheCapacity = 256;

  /// The persistent admission engine, or nullptr before the first
  /// admission (and after load_state, which drops it — the next admission
  /// rebuilds it from the restored apps). For /stats.json.
  const sim::IncrementalEvaluator* admission_engine() const {
    return engine_.get();
  }

 private:
  struct App {
    std::string name;
    std::uint16_t id = 0;
    qos::Requirement requirement;  // as admitted (possibly renegotiated)
    bool renegotiated = false;
    double revenue = 1.0;
    std::size_t host = 0;
    Profile profile;
    qos::Translation translation;
    qos::AllocationTrace alloc;
    wlm::Controller controller;
    slo::Band band;                // requirement as plain numbers
    slo::BandAccumulator bands;    // per-app attainment for summary()

    /// `profile_text` is `demand` as a JSON array, when the caller holds
    /// it already (a restored app); otherwise it is printed here.
    App(std::string name_, std::uint16_t id_, qos::Requirement req,
        const trace::DemandTrace& demand,
        std::shared_ptr<const std::string> profile_text,
        const qos::CosCommitment& cos2, const ServeConfig& cfg);
  };

  std::vector<std::string> tick(const TickMessage& msg, bool* state_changed);
  std::string admit(const AdmitMessage& msg, bool* state_changed);
  std::string depart(const DepartMessage& msg, bool* state_changed);
  std::string advance_slot(const TickMessage& msg, bool filler);
  App build_app(const AdmitMessage& msg, const qos::Requirement& req,
                std::shared_ptr<const std::string> profile_text = {}) const;
  /// The persistent admission engine for `calendar`, built (or
  /// rebuilt, when the fleet emptied and the calendar changed) to mirror
  /// apps_ exactly: every admitted app registered and hosted. The engine
  /// borrows spans from App::alloc — the heap buffers are stable across
  /// vector<App> moves, and depart() unregisters before the App dies.
  sim::IncrementalEvaluator& engine_for(const trace::Calendar& calendar);
  const std::vector<std::string>* cached_replies(const std::string& id) const;
  void remember(const std::string& id, const std::vector<std::string>& replies);

  ServeConfig config_;
  std::vector<App> apps_;  // admission order (ids are stable, never reused)
  std::vector<double> server_cpus_;
  /// Long-lived delta-evaluation engine mirroring apps_ (rebuilt lazily
  /// after load_state). Not checkpointed: it is a pure cache over apps_ and
  /// never influences verdict bytes.
  std::unique_ptr<sim::IncrementalEvaluator> engine_;
  std::vector<slo::DeferralQueue> backlogs_;  // per server
  obs::Watchdog watchdog_;
  std::size_t next_slot_ = 0;
  std::size_t reported_alerts_ = 0;  // alerts already carried in verdicts
  /// The replies of the latest tick, which judged slot next_slot_ - 1: a
  /// resend of that slot re-emits them.
  std::vector<std::string> last_tick_replies_;
  std::size_t next_app_id_ = 0;  // monotone: departed ids are never reused
  std::size_t departed_ = 0;     // lifetime departures (incl. evictions)
  /// FIFO of (request id, reply lines) for retry idempotency; bounded at
  /// kIdCacheCapacity. Part of the replayed state: ids live in journaled
  /// lines, so replay rebuilds the cache byte-identically.
  std::deque<std::pair<std::string, std::vector<std::string>>> id_cache_;
};

}  // namespace ropus::serve
