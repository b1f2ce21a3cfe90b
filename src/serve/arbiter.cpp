#include "serve/arbiter.h"

#include <cmath>
#include <map>
#include <string_view>

#include "common/crc32.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "qos/translation.h"
#include "trace/calendar.h"
#include "wlm/compliance.h"

namespace ropus::serve {

namespace {

const char* band_class_name(slo::BandClass cls) {
  switch (cls) {
    case slo::BandClass::kIdle: return "idle";
    case slo::BandClass::kAcceptable: return "acceptable";
    case slo::BandClass::kDegraded: return "degraded";
    case slo::BandClass::kViolating: return "violating";
  }
  return "unknown";
}

const char* telemetry_name(wlm::ObservationClass cls) {
  switch (cls) {
    case wlm::ObservationClass::kOk: return "ok";
    case wlm::ObservationClass::kStale: return "stale";
    case wlm::ObservationClass::kMissing: return "missing";
    case wlm::ObservationClass::kCorrupt: return "corrupt";
  }
  return "unknown";
}

/// Concurrent admitted-app bound; app ids are handed out monotonically and
/// never reused after a departure, so the lifetime admission count is
/// additionally bounded by the id space below kPoolApp (0xFFFF).
constexpr std::size_t kMaxApps = 1024;
constexpr std::size_t kMaxLifetimeApps = 0xFFFE;

/// `demand`'s values as a JSON array, printed by the writer every other
/// checkpoint field goes through.
std::string profile_json(const trace::DemandTrace& demand) {
  json::Writer w;
  w.begin_array();
  for (const double d : demand.values()) w.value(d);
  w.end_array();
  return std::move(w).str();
}

/// An app's profile: `text` when the caller holds it already, else
/// `demand` printed here, with the digest of that text.
Arbiter::Profile profile_of(const trace::DemandTrace& demand,
                            std::shared_ptr<const std::string> text) {
  if (text == nullptr) {
    text = std::make_shared<const std::string>(profile_json(demand));
  }
  const std::uint32_t digest = crc::crc32(*text);
  return {std::move(text), digest};
}

}  // namespace

void ServeConfig::validate() const {
  cos2.validate();
  degraded.validate();
  admission.validate();
  ROPUS_REQUIRE(minutes_per_sample > 0.0, "sample interval must be > 0");
  ROPUS_REQUIRE(slots_per_day > 0, "slots_per_day must be > 0");
  ROPUS_REQUIRE(static_cast<double>(slots_per_day) * minutes_per_sample ==
                    static_cast<double>(trace::Calendar::kMinutesPerDay),
                "slots_per_day x minutes_per_sample must cover one day");
  ROPUS_REQUIRE(servers > 0, "pool needs at least one server");
  ROPUS_REQUIRE(server_cpus > 0.0, "server capacity must be > 0");
  ROPUS_REQUIRE(history_window >= 1, "history window must be >= 1");
  ROPUS_REQUIRE(max_slot_gap >= 1, "max slot gap must be >= 1");
}

Arbiter::App::App(std::string name_, std::uint16_t id_, qos::Requirement req,
                  const trace::DemandTrace& demand,
                  std::shared_ptr<const std::string> profile_text,
                  const qos::CosCommitment& cos2, const ServeConfig& cfg)
    : name(std::move(name_)),
      id(id_),
      requirement(req),
      profile(profile_of(demand, std::move(profile_text))),
      translation(qos::translate(demand, req, cos2)),
      alloc(demand, translation),
      controller(translation, cfg.policy, cfg.history_window, cfg.degraded),
      band(wlm::band_of(req)),
      bands(cfg.minutes_per_sample) {}

Arbiter::Arbiter(const ServeConfig& config)
    : config_(config),
      server_cpus_(config.servers, config.server_cpus),
      watchdog_([&config] {
        obs::WatchdogConfig wc;
        wc.normal = config.normal;
        wc.theta = config.cos2.theta;
        wc.minutes_per_sample = config.minutes_per_sample;
        wc.slots_per_day = config.slots_per_day;
        return wc;
      }()) {
  config_.validate();
  const std::size_t deadline_slots = static_cast<std::size_t>(
      config_.cos2.deadline_minutes / config_.minutes_per_sample);
  backlogs_.assign(config_.servers, slo::DeferralQueue(deadline_slots));
}

const std::vector<std::string>* Arbiter::cached_replies(
    const std::string& id) const {
  if (id.empty()) return nullptr;
  for (const auto& [key, replies] : id_cache_) {
    if (key == id) return &replies;
  }
  return nullptr;
}

void Arbiter::remember(const std::string& id,
                       const std::vector<std::string>& replies) {
  if (id.empty()) return;
  id_cache_.emplace_back(id, replies);
  while (id_cache_.size() > kIdCacheCapacity) id_cache_.pop_front();
}

std::vector<std::string> Arbiter::handle(const Message& msg,
                                         bool* state_changed) {
  if (state_changed != nullptr) *state_changed = false;
  // Retry idempotency: a resend of a remembered request id gets the
  // original reply bytes without touching state — a client that lost the
  // reply to a disconnect can never double-admit or double-judge.
  if (const std::vector<std::string>* cached = cached_replies(msg.id)) {
    static obs::Counter& retries = obs::counter("serve.id_cache.hits");
    retries.add();
    return *cached;
  }
  bool changed = false;
  std::vector<std::string> replies;
  switch (msg.type) {
    case MessageType::kTick:
      replies = tick(msg.tick, &changed);
      break;
    case MessageType::kAdmit:
      replies = {admit(msg.admit, &changed)};
      break;
    case MessageType::kDepart:
    case MessageType::kEvict:
      replies = {depart(msg.depart, &changed)};
      break;
    case MessageType::kCheckpoint:
    case MessageType::kStats:
    case MessageType::kShutdown:
      // Handled by the daemon envelope; the arbiter has no state to change.
      break;
  }
  // Only state-changing requests are remembered: they are exactly the
  // journaled ones, so replay rebuilds the cache; everything else is a pure
  // function and re-answers identically anyway.
  if (changed) remember(msg.id, replies);
  if (state_changed != nullptr) *state_changed = changed;
  return replies;
}

sim::IncrementalEvaluator& Arbiter::engine_for(
    const trace::Calendar& calendar) {
  if (engine_ == nullptr || !(engine_->calendar() == calendar)) {
    // A calendar change is only possible while the fleet is empty (admit
    // enforces matching profile lengths), so rebuilding from apps_ is both
    // correct and cheap. The same rebuild restores the engine after
    // load_state dropped it.
    engine_ = std::make_unique<sim::IncrementalEvaluator>(
        calendar, config_.cos2, server_cpus_);
    for (const App& app : apps_) {
      engine_->register_workload(app.id, app.alloc);
      engine_->add(app.id, app.host);
    }
  }
  return *engine_;
}

Arbiter::App Arbiter::build_app(
    const AdmitMessage& msg, const qos::Requirement& req,
    std::shared_ptr<const std::string> profile_text) const {
  const std::size_t week_slots =
      trace::Calendar::kDaysPerWeek * config_.slots_per_day;
  if (msg.profile.size() % week_slots != 0 || msg.profile.empty()) {
    throw ProtocolViolation(
        ProtocolError::kBadValue,
        "profile must cover whole weeks (" + std::to_string(week_slots) +
            " slots each); got " + std::to_string(msg.profile.size()));
  }
  const std::size_t weeks = msg.profile.size() / week_slots;
  trace::Calendar calendar(weeks,
                           static_cast<std::size_t>(config_.minutes_per_sample));
  try {
    const trace::DemandTrace profile(msg.app, calendar, msg.profile);
    App app(msg.app, static_cast<std::uint16_t>(next_app_id_), req, profile,
            std::move(profile_text), config_.cos2, config_);
    app.revenue = msg.revenue;
    return app;
  } catch (const ProtocolViolation&) {
    throw;
  } catch (const Error& e) {
    // Translation / trace validation failures are the client's input being
    // out of domain, not a daemon fault. The reply names the failed
    // requirement, not where in the source it is checked.
    throw ProtocolViolation(ProtocolError::kBadValue, std::string(e.message()));
  }
}

std::string Arbiter::admit(const AdmitMessage& msg, bool* state_changed) {
  for (const App& app : apps_) {
    if (app.name == msg.app) {
      throw ProtocolViolation(ProtocolError::kDuplicateApp,
                              "app '" + msg.app + "' is already admitted");
    }
  }
  if (apps_.size() >= kMaxApps || next_app_id_ >= kMaxLifetimeApps) {
    throw ProtocolViolation(ProtocolError::kBadValue,
                            "application limit reached");
  }
  if (!apps_.empty() && apps_.front().alloc.size() != msg.profile.size()) {
    throw ProtocolViolation(
        ProtocolError::kBadValue,
        "profile length must match the fleet (" +
            std::to_string(apps_.front().alloc.size()) + " slots)");
  }

  // The candidate is registered for the probes and unregistered on every
  // exit from this lambda, so a rejection, a refusal, or the renegotiation
  // retry with a different allocation under the same id leaves no trace in
  // the persistent engine. The engine refuses an allocation outside its
  // exact range (overflowed to +inf, or summed peaks reaching 2^33 CPUs)
  // without registering it, and the capacity search refuses a profile so
  // long that the server capacity times its length reaches 2^33; both are
  // the client's input being out of domain, like a translation failure.
  const auto place = [&](const App& app) {
    sim::IncrementalEvaluator& engine = engine_for(app.alloc.calendar());
    try {
      engine.register_workload(app.id, app.alloc);
    } catch (const InvalidArgument&) {
      throw ProtocolViolation(
          ProtocolError::kBadValue,
          "profile out of range: allocations must be finite and the fleet's "
          "summed peaks below 2^33 CPUs");
    }
    const struct Unregister {
      sim::IncrementalEvaluator& engine;
      std::size_t id;
      ~Unregister() { engine.unregister_workload(id); }
    } unregister{engine, app.id};
    try {
      return place_candidate(engine, app.id, app.alloc.peak_allocation(),
                             msg.revenue, config_.admission);
    } catch (const InvalidArgument&) {
      throw ProtocolViolation(
          ProtocolError::kBadValue,
          "profile out of range: the server capacity in CPUs times the "
          "profile length in slots must stay below 2^33");
    }
  };

  App candidate = build_app(msg, msg.requirement);
  AdmissionOutcome outcome = place(candidate);
  bool renegotiated = false;
  if (outcome.decision == AdmissionDecision::kRejected &&
      config_.admission.renegotiate_m < msg.requirement.m_percent) {
    // Offer the weaker band before giving up (Mazzucco-style renegotiation:
    // a degraded contract that fits beats a lost customer).
    qos::Requirement weaker = msg.requirement;
    weaker.m_percent = config_.admission.renegotiate_m;
    if (config_.admission.renegotiate_tdegr > 0.0) {
      weaker.t_degr_minutes = config_.admission.renegotiate_tdegr;
    } else {
      weaker.t_degr_minutes.reset();
    }
    App weaker_app = build_app(msg, weaker);
    const AdmissionOutcome retry = place(weaker_app);
    if (retry.decision == AdmissionDecision::kAccepted) {
      candidate = std::move(weaker_app);
      outcome = retry;
      renegotiated = true;
    }
  }

  json::Writer w;
  w.begin_object();
  w.key("type").value("admission");
  w.key("app").value(msg.app);
  if (outcome.decision == AdmissionDecision::kRejected) {
    static obs::Counter& rejects = obs::counter("serve.admission.rejected");
    rejects.add();
    w.key("decision").value("rejected");
    w.key("reason").value(outcome.reason);
    w.end_object();
    return std::move(w).str();
  }
  static obs::Counter& accepts = obs::counter("serve.admission.accepted");
  static obs::Counter& renegs = obs::counter("serve.admission.renegotiated");
  (renegotiated ? renegs : accepts).add();
  candidate.renegotiated = renegotiated;
  candidate.host = outcome.host;
  w.key("decision").value(renegotiated ? "renegotiated" : "accepted");
  w.key("host").value(outcome.host);
  w.key("headroom").value(outcome.headroom);
  w.key("score").value(outcome.score);
  w.key("m").value(candidate.requirement.m_percent);
  if (candidate.requirement.t_degr_minutes.has_value()) {
    w.key("tdegr").value(*candidate.requirement.t_degr_minutes);
  }
  w.end_object();
  apps_.push_back(std::move(candidate));
  {
    // Mirror the admission into the persistent engine place() built.
    // Registering the *stored* app's allocation (not the moved-from
    // local's) keeps the borrow tied to the buffers that now live in apps_.
    const App& stored = apps_.back();
    engine_->register_workload(stored.id, stored.alloc);
    engine_->add(stored.id, stored.host);
  }
  next_app_id_ += 1;
  if (state_changed != nullptr) *state_changed = true;
  return std::move(w).str();
}

std::string Arbiter::depart(const DepartMessage& msg, bool* state_changed) {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].name != msg.app) continue;
    const App& app = apps_[i];
    json::Writer w;
    w.begin_object();
    w.key("type").value("departure");
    w.key("app").value(app.name);
    w.key("host").value(app.host);
    w.key("released_peak").value(app.alloc.peak_allocation());
    if (msg.evict) w.key("evicted").value(true);
    w.key("apps").value(apps_.size() - 1);
    w.end_object();
    // Releasing capacity is an exact-residue removal: the persistent
    // engine's per-server sums return to the bits they held before this
    // app was admitted, so the freed headroom is visible to the very next
    // admission. Unregister before the App (and the spans the engine
    // borrows) dies. The app's watchdog history stays — attainment already
    // judged is not unjudged by leaving.
    if (engine_ != nullptr && engine_->registered(app.id)) {
      engine_->remove(app.id);
      engine_->unregister_workload(app.id);
    }
    apps_.erase(apps_.begin() + static_cast<std::ptrdiff_t>(i));
    departed_ += 1;
    static obs::Counter& departs = obs::counter("serve.departures");
    static obs::Counter& evicts = obs::counter("serve.evictions");
    (msg.evict ? evicts : departs).add();
    if (state_changed != nullptr) *state_changed = true;
    return std::move(w).str();
  }
  throw ProtocolViolation(ProtocolError::kUnknownApp,
                          "app '" + msg.app + "' is not admitted");
}

std::vector<std::string> Arbiter::tick(const TickMessage& msg,
                                       bool* state_changed) {
  if (next_slot_ > 0 && msg.slot == next_slot_ - 1) {
    // Crash-retry idempotence: a resend of the most recent tick re-emits
    // its cached verdicts without re-judging the slot.
    return last_tick_replies_;
  }
  if (msg.slot < next_slot_) {
    throw ProtocolViolation(
        ProtocolError::kStaleSlot,
        "slot " + std::to_string(msg.slot) + " already judged (next is " +
            std::to_string(next_slot_) + ")");
  }
  if (msg.slot - next_slot_ > config_.max_slot_gap) {
    throw ProtocolViolation(
        ProtocolError::kSlotGapTooLarge,
        "gap of " + std::to_string(msg.slot - next_slot_) +
            " slots exceeds max_slot_gap " +
            std::to_string(config_.max_slot_gap));
  }
  std::vector<std::string> replies;
  // Intermediate slots lost to the gap are judged as missing telemetry for
  // every app — the watchdog must count those intervals, not skip them.
  for (std::size_t s = next_slot_; s <= msg.slot; ++s) {
    replies.push_back(advance_slot(msg, s != msg.slot));
  }
  last_tick_replies_ = replies;
  if (state_changed != nullptr) *state_changed = true;
  return replies;
}

std::string Arbiter::advance_slot(const TickMessage& msg, bool filler) {
  static obs::Counter& slots = obs::counter("serve.slots");
  slots.add();
  const std::size_t slot = next_slot_;
  next_slot_ += 1;

  std::map<std::string_view, const DemandReading*> readings;
  if (!filler) {
    for (const DemandReading& r : msg.demand) readings[r.app] = &r;
  }

  struct SlotState {
    wlm::ObservationClass cls = wlm::ObservationClass::kMissing;
    double demand = 0.0;  // sanitized observation (0 when unusable)
    wlm::AllocationRequest request;
    bool fallback = false;
    double granted = 0.0;
    double satisfied2 = 0.0;
    slo::BandClass band = slo::BandClass::kIdle;  // against the app's band
  };
  std::vector<SlotState> states(apps_.size());

  // Three passes: requests summed per host in ascending app order, one
  // kernel grant (and deferral backlog step) per server, then each app's
  // grant below. Names are unique, so readings matched by no app are the
  // unknown ones.
  std::vector<wlm::AllocationRequest> requested(server_cpus_.size());
  std::size_t matched = 0;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    App& app = apps_[i];
    SlotState& st = states[i];
    wlm::Observation obs = wlm::Observation::missing();
    if (!filler) {
      const auto it = readings.find(app.name);
      if (it != readings.end()) {
        matched += 1;
        if (!it->second->missing) obs = wlm::Observation::ok(it->second->value);
      }
    }
    st.cls = app.controller.classify(obs);
    st.demand = st.cls == wlm::ObservationClass::kOk ? obs.value : 0.0;
    st.request = app.controller.observe(obs);
    st.fallback = app.controller.in_fallback();
    requested[app.host].cos1 += st.request.cos1;
    requested[app.host].cos2 += st.request.cos2;
  }
  const std::size_t unknown_apps = readings.size() - matched;

  std::vector<slo::GrantScales> grants(server_cpus_.size());
  double pool_cos2 = 0.0;
  double pool_satisfied2 = 0.0;
  double backlog_total = 0.0;
  bool overdue = false;
  for (std::size_t s = 0; s < server_cpus_.size(); ++s) {
    const double capacity = server_cpus_[s];
    grants[s] =
        slo::grant_scales(capacity, requested[s].cos1, requested[s].cos2);
    const slo::GrantScales& grant = grants[s];
    slo::DeferralQueue& backlog = backlogs_[s];
    backlog.drain(capacity - grant.cos1_granted - grant.cos2_granted);
    backlog.defer(slot, requested[s].cos2 - grant.cos2_granted);
    backlog_total += backlog.total();
    overdue = overdue || backlog.overdue(slot);
    pool_cos2 += requested[s].cos2;
    pool_satisfied2 += grant.cos2_granted;
  }

  // Feed the watchdog (and the flight recorder, when one is installed)
  // exactly what cmd_wlm's batch path would record for these inputs.
  obs::Recorder* recorder = obs::Recorder::active();
  const bool record = recorder != nullptr && recorder->should_record(slot);
  if (record) {
    recorder->set_calendar(config_.minutes_per_sample, config_.slots_per_day);
  }
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    App& app = apps_[i];
    SlotState& st = states[i];
    const slo::GrantScales& grant = grants[app.host];
    st.granted = grant.grant(st.request.cos1, st.request.cos2);
    st.satisfied2 = st.request.cos2 * grant.cos2;
    obs::SlotRecord rec;
    rec.slot = static_cast<std::uint32_t>(slot);
    rec.app = app.id;
    rec.telemetry = static_cast<std::uint8_t>(static_cast<int>(st.cls) + 1);
    if (st.fallback) rec.flags |= obs::SlotRecord::kFallback;
    rec.demand = st.demand;
    rec.cos1 = st.request.cos1;
    rec.cos2 = st.request.cos2;
    rec.granted = st.granted;
    rec.satisfied2 = st.satisfied2;
    watchdog_.observe(rec);
    st.band = app.bands.observe(st.demand, st.granted, app.band, st.fallback);
    if (record) {
      rec.app = recorder->app_id(app.name);
      recorder->append(rec);
    }
  }
  obs::SlotRecord pool;
  pool.slot = static_cast<std::uint32_t>(slot);
  pool.app = obs::kPoolApp;
  pool.cos2 = pool_cos2;
  pool.satisfied2 = pool_satisfied2;
  pool.granted = pool_satisfied2;
  watchdog_.observe(pool);
  if (record) recorder->append(pool);

  json::Writer w;
  w.begin_object();
  w.key("type").value("verdict");
  w.key("slot").value(slot);
  if (filler) w.key("filler").value(true);
  w.key("theta").value(watchdog_.theta());
  w.key("apps").begin_array();
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const App& app = apps_[i];
    const SlotState& st = states[i];
    w.begin_object();
    w.key("app").value(app.name);
    w.key("demand").value(st.demand);
    w.key("granted").value(st.granted);
    w.key("class").value(band_class_name(st.band));
    w.key("telemetry").value(telemetry_name(st.cls));
    if (st.fallback) w.key("fallback").value(true);
    w.end_object();
  }
  w.end_array();
  w.key("backlog").value(backlog_total);
  if (overdue) w.key("overdue").value(true);
  if (unknown_apps > 0) w.key("unknown_apps").value(unknown_apps);
  const std::vector<obs::Alert>& alerts = watchdog_.alerts();
  if (alerts.size() > reported_alerts_) {
    w.key("alerts").begin_array();
    for (std::size_t a = reported_alerts_; a < alerts.size(); ++a) {
      w.value(obs::describe(alerts[a]));
    }
    w.end_array();
    reported_alerts_ = alerts.size();
  }
  w.end_object();
  return std::move(w).str();
}

double Arbiter::backlog_total() const {
  double total = 0.0;
  for (const slo::DeferralQueue& q : backlogs_) total += q.total();
  return total;
}

std::string Arbiter::summary() const {
  json::Writer w;
  w.begin_object();
  w.key("type").value("summary");
  w.key("slots").value(next_slot_);
  w.key("departed").value(departed_);
  w.key("theta").value(watchdog_.theta());
  w.key("apps").begin_array();
  for (const App& app : apps_) {
    const slo::BandCounts& c = app.bands.counts();
    w.begin_object();
    w.key("app").value(app.name);
    w.key("host").value(app.host);
    if (app.renegotiated) w.key("renegotiated").value(true);
    w.key("intervals").value(c.intervals);
    w.key("idle").value(c.idle);
    w.key("acceptable").value(c.acceptable);
    w.key("degraded").value(c.degraded);
    w.key("violating").value(c.violating);
    w.key("longest_degraded_minutes").value(c.longest_degraded_minutes);
    w.key("satisfies").value(c.satisfies(app.band));
    w.end_object();
  }
  w.end_array();
  w.key("alerts").value(watchdog_.alerts().size());
  w.key("alerts_dropped")
      .value(static_cast<std::int64_t>(watchdog_.alerts_dropped()));
  w.end_object();
  return std::move(w).str();
}

std::vector<Arbiter::Profile> Arbiter::profiles() const {
  std::vector<Profile> out;
  out.reserve(apps_.size());
  for (const App& app : apps_) out.push_back(app.profile);
  return out;
}

void Arbiter::save_state(json::Writer& w,
                         const std::vector<std::string>& profile_names) const {
  ROPUS_ASSERT(profile_names.size() == apps_.size(),
               "one profile name per admitted app");
  w.begin_object();
  w.key("next_slot").value(next_slot_);
  // Derived from next_slot; kept so checkpoints keep their layout.
  const bool any_tick = next_slot_ > 0;
  w.key("any_tick").value(any_tick);
  w.key("last_tick_slot").value(any_tick ? next_slot_ - 1 : 0);
  w.key("reported_alerts").value(reported_alerts_);
  w.key("next_app_id").value(next_app_id_);
  w.key("departed").value(departed_);
  w.key("last_tick_replies").begin_array();
  for (const std::string& r : last_tick_replies_) w.value(r);
  w.end_array();
  w.key("id_cache").begin_array();
  for (const auto& [id, replies] : id_cache_) {
    w.begin_object();
    w.key("id").value(id);
    w.key("replies").begin_array();
    for (const std::string& r : replies) w.value(r);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("apps").begin_array();
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const App& app = apps_[i];
    w.begin_object();
    w.key("name").value(app.name);
    w.key("id").value(static_cast<std::size_t>(app.id));
    w.key("host").value(app.host);
    w.key("revenue").value(app.revenue);
    w.key("renegotiated").value(app.renegotiated);
    w.key("ulow").value(app.requirement.u_low);
    w.key("uhigh").value(app.requirement.u_high);
    w.key("udegr").value(app.requirement.u_degr);
    w.key("m").value(app.requirement.m_percent);
    if (app.requirement.t_degr_minutes.has_value()) {
      w.key("tdegr").value(*app.requirement.t_degr_minutes);
    } else {
      w.key("tdegr").null();
    }
    w.key("profile").value(profile_names[i]);
    const wlm::Controller::Snapshot snap = app.controller.snapshot();
    w.key("controller").begin_object();
    w.key("history").begin_array();
    for (const double h : snap.history) w.value(h);
    w.end_array();
    w.key("last_basis").value(snap.last_basis);
    w.key("consecutive_degraded").value(snap.consecutive_degraded);
    w.key("health").begin_object();
    w.key("intervals").value(snap.health.intervals);
    w.key("ok").value(snap.health.ok);
    w.key("stale").value(snap.health.stale);
    w.key("missing").value(snap.health.missing);
    w.key("corrupt").value(snap.health.corrupt);
    w.key("fallback_intervals").value(snap.health.fallback_intervals);
    w.key("fallback_activations").value(snap.health.fallback_activations);
    w.key("longest_blackout").value(snap.health.longest_blackout);
    w.end_object();
    w.end_object();
    w.key("bands");
    obs::write_band_state(w, app.bands);
    w.end_object();
  }
  w.end_array();
  w.key("backlogs").begin_array();
  for (const slo::DeferralQueue& backlog : backlogs_) {
    w.begin_object();
    w.key("total").value(backlog.total());
    w.key("entries").begin_array();
    for (const slo::DeferralQueue::Entry& e : backlog.entries()) {
      w.begin_object();
      w.key("created").value(e.created);
      w.key("remaining").value(e.remaining);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("watchdog");
  watchdog_.save_state(w);
  w.end_object();
}

void Arbiter::load_state(const json::Value& v,
                         const ProfileResolver& resolve) {
  using json::read_count;
  next_slot_ = read_count(v, "next_slot");
  // A tick judges through its slot and leaves next_slot one past it, so
  // the saved tick fields are what save_state derives from next_slot.
  const bool any_tick = v.at("any_tick").as_bool();
  if (any_tick != (next_slot_ > 0) ||
      read_count(v, "last_tick_slot") != (any_tick ? next_slot_ - 1 : 0)) {
    throw IoError("checkpoint tick bookkeeping does not match next_slot");
  }
  reported_alerts_ = read_count(v, "reported_alerts");
  next_app_id_ = read_count(v, "next_app_id");
  if (next_app_id_ > kMaxLifetimeApps) {
    throw IoError("checkpoint next_app_id exceeds the app id space");
  }
  departed_ = read_count(v, "departed");
  last_tick_replies_.clear();
  for (const json::Value& r : v.at("last_tick_replies").as_array()) {
    last_tick_replies_.push_back(r.as_string());
  }
  id_cache_.clear();
  for (const json::Value& item : v.at("id_cache").as_array()) {
    std::vector<std::string> replies;
    for (const json::Value& r : item.at("replies").as_array()) {
      replies.push_back(r.as_string());
    }
    id_cache_.emplace_back(item.at("id").as_string(), std::move(replies));
  }

  apps_.clear();
  // The engine borrows spans from the apps being torn down; drop it and let
  // the next delta-path admission rebuild it from the restored fleet.
  engine_.reset();
  for (const json::Value& item : v.at("apps").as_array()) {
    // Every later tick indexes the pool by host and matches readings by
    // name, and admissions key the engine by id: a payload that passed its
    // CRC must still name each app once, on a real server, under an id
    // that was handed out.
    AdmitMessage msg;
    msg.app = item.at("name").as_string();
    const std::size_t id = read_count(item, "id");
    const std::size_t host = read_count(item, "host");
    if (host >= config_.servers) {
      throw IoError("checkpoint app '" + msg.app + "' is on server " +
                    std::to_string(host) + " outside the pool");
    }
    if (id >= next_app_id_) {
      throw IoError("checkpoint app '" + msg.app + "' has id " +
                    std::to_string(id) + ", never handed out");
    }
    for (const App& other : apps_) {
      if (other.name == msg.app || other.id == id) {
        throw IoError("checkpoint app '" + msg.app +
                      "' repeats the name or id of '" + other.name + "'");
      }
    }
    msg.revenue = item.at("revenue").as_number();
    msg.requirement.u_low = item.at("ulow").as_number();
    msg.requirement.u_high = item.at("uhigh").as_number();
    msg.requirement.u_degr = item.at("udegr").as_number();
    msg.requirement.m_percent = item.at("m").as_number();
    if (!item.at("tdegr").is_null()) {
      msg.requirement.t_degr_minutes = item.at("tdegr").as_number();
    }
    // A v3 profile is a name in the store, parsed here one app at a time;
    // a v2 profile is the array inline.
    std::shared_ptr<const std::string> text;
    json::Value stored;
    if (resolve) {
      text = resolve(item.at("profile").as_string());
      stored = json::parse(*text);
    }
    for (const json::Value& d :
         (resolve ? stored : item.at("profile")).as_array()) {
      msg.profile.push_back(d.as_number());
    }
    App app = build_app(msg, msg.requirement, std::move(text));
    // build_app stamps the next fresh id; restored apps keep the one they
    // were admitted with (departures leave holes that are never reused).
    app.id = static_cast<std::uint16_t>(id);
    app.host = host;
    app.renegotiated = item.at("renegotiated").as_bool();

    // The controller turns history and last_basis back into requests on
    // the next tick, which refuse a negative demand: a restored state
    // must already be a demand the controller could have measured.
    const auto read_demand = [&msg](const json::Value& value,
                                    std::string_view what) {
      const double demand = value.as_number();
      if (!(std::isfinite(demand) && demand >= 0.0)) {
        throw IoError("checkpoint app '" + msg.app + "' has controller " +
                      std::string(what) + " that is not a demand");
      }
      return demand;
    };
    const json::Value& ctl = item.at("controller");
    wlm::Controller::Snapshot snap;
    for (const json::Value& h : ctl.at("history").as_array()) {
      snap.history.push_back(read_demand(h, "history"));
    }
    snap.last_basis = read_demand(ctl.at("last_basis"), "last_basis");
    snap.consecutive_degraded = read_count(ctl, "consecutive_degraded");
    const json::Value& health = ctl.at("health");
    snap.health.intervals = read_count(health, "intervals");
    snap.health.ok = read_count(health, "ok");
    snap.health.stale = read_count(health, "stale");
    snap.health.missing = read_count(health, "missing");
    snap.health.corrupt = read_count(health, "corrupt");
    snap.health.fallback_intervals = read_count(health, "fallback_intervals");
    snap.health.fallback_activations =
        read_count(health, "fallback_activations");
    snap.health.longest_blackout = read_count(health, "longest_blackout");
    app.controller.restore(snap);

    obs::read_band_state(item.at("bands"), app.bands);

    apps_.push_back(std::move(app));
  }

  const auto& backlogs = v.at("backlogs").as_array();
  if (backlogs.size() != backlogs_.size()) {
    throw IoError("checkpoint backlog count does not match the pool");
  }
  for (std::size_t s = 0; s < backlogs.size(); ++s) {
    // What a tick defers: at most one entry per judged slot, in slot
    // order, each above the epsilon that drain() retires. A drain serves
    // whatever `remaining` says, so a negative one would hand CPUs back.
    std::vector<slo::DeferralQueue::Entry> entries;
    for (const json::Value& e : backlogs[s].at("entries").as_array()) {
      const slo::DeferralQueue::Entry entry{read_count(e, "created"),
                                            e.at("remaining").as_number()};
      if (entry.created >= next_slot_ ||
          (!entries.empty() && entry.created <= entries.back().created) ||
          !(std::isfinite(entry.remaining) &&
            entry.remaining > slo::kCapacityEps)) {
        throw IoError("checkpoint backlog holds an entry no tick deferred");
      }
      entries.push_back(entry);
    }
    const double total = backlogs[s].at("total").as_number();
    if (!(std::isfinite(total) && total >= 0.0)) {
      throw IoError("checkpoint backlog total is not a deferred amount");
    }
    backlogs_[s].restore(entries, total);
  }

  watchdog_.load_state(v.at("watchdog"));
}

}  // namespace ropus::serve
