#include "obs/watchdog.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::obs {

namespace {

// A long campaign can breach thousands of times; log the first few per
// kind, then sample (mirrors the controller-warning pattern). Declined
// lines are counted in the registry, so nothing disappears silently.
log::Every& alert_limiter(AlertKind kind) {
  static log::Every band(5, 1000);
  static log::Every tdegr(5, 1000);
  static log::Every theta(5, 1000);
  static log::Every cos1(5, 1000);
  switch (kind) {
    case AlertKind::kBandBudget: return band;
    case AlertKind::kTDegr: return tdegr;
    case AlertKind::kTheta: return theta;
    case AlertKind::kCos1Overcommit: return cos1;
  }
  return band;
}

obs::Counter& alert_counter(AlertKind kind) {
  static obs::Counter& band = obs::counter("watchdog.alerts.band_budget");
  static obs::Counter& tdegr = obs::counter("watchdog.alerts.t_degr");
  static obs::Counter& theta = obs::counter("watchdog.alerts.theta");
  static obs::Counter& cos1 = obs::counter("watchdog.alerts.cos1_overcommit");
  switch (kind) {
    case AlertKind::kBandBudget: return band;
    case AlertKind::kTDegr: return tdegr;
    case AlertKind::kTheta: return theta;
    case AlertKind::kCos1Overcommit: return cos1;
  }
  return band;
}

}  // namespace

const char* alert_kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::kBandBudget: return "band_budget";
    case AlertKind::kTDegr: return "t_degr";
    case AlertKind::kTheta: return "theta";
    case AlertKind::kCos1Overcommit: return "cos1_overcommit";
  }
  return "unknown";
}

std::string describe(const Alert& alert) {
  char buf[192];
  const char* app = alert.app == kPoolApp ? "pool" : "app";
  const char* severity =
      alert.severity == AlertSeverity::kCritical ? "critical" : "warning";
  switch (alert.kind) {
    case AlertKind::kBandBudget:
      std::snprintf(buf, sizeof(buf),
                    "%s %u: degraded fraction %.2f%% exceeds the %.2f%% "
                    "M_degr budget from slot %u [%s]",
                    app, alert.app, alert.value, alert.threshold,
                    alert.first_slot, severity);
      break;
    case AlertKind::kTDegr:
      std::snprintf(buf, sizeof(buf),
                    "%s %u: contiguous degraded run of %.0f min exceeds "
                    "T_degr %.0f min from slot %u [%s]",
                    app, alert.app, alert.value, alert.threshold,
                    alert.first_slot, severity);
      break;
    case AlertKind::kTheta:
      std::snprintf(buf, sizeof(buf),
                    "pool: theta group ratio %.4f fell below target %.4f at "
                    "slot %u (section %u) [%s]",
                    alert.value, alert.threshold, alert.first_slot,
                    alert.section, severity);
      break;
    case AlertKind::kCos1Overcommit:
      std::snprintf(buf, sizeof(buf),
                    "%s %u: CoS1 overcommitted (granted/requested %.4f) "
                    "from slot %u [%s]",
                    app, alert.app, alert.value, alert.first_slot, severity);
      break;
  }
  return buf;
}

Watchdog::Watchdog(WatchdogConfig config) : config_(config) {
  if (config_.band_warmup_slots == 0) {
    config_.band_warmup_slots = config_.slots_per_day;
  }
  if (config_.stride == 0) config_.stride = 1;
}

std::ptrdiff_t Watchdog::emit(Alert alert) {
  static obs::Counter& suppressed = obs::counter("watchdog.alerts_suppressed");
  alert_counter(alert.kind).add(1);

  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) {
    SpanRecord span;
    span.name = std::string("watchdog.alert.") + alert_kind_name(alert.kind);
    span.start_seconds = monotonic_seconds();
    tracer.append(std::move(span));
  }

  log::Every& limiter = alert_limiter(alert.kind);
  if (limiter.allow()) {
    ROPUS_LOG(kWarn) << "watchdog: " << describe(alert) << " (suppressed "
                     << limiter.suppressed() << " similar alerts)";
  } else {
    suppressed.add(1);
  }

  if (alerts_.size() >= kMaxAlerts) {
    alerts_dropped_ += 1;
    return -1;
  }
  alerts_.push_back(alert);
  return static_cast<std::ptrdiff_t>(alerts_.size() - 1);
}

void Watchdog::end_run(ModeState& mode) {
  mode.acc.end_run();
  mode.tdegr_active = false;
  mode.open_tdegr = -1;
}

void Watchdog::classify(ModeState& mode, const SlotRecord& r,
                        const SloBand& band) {
  // The kernel classifies and counts; the watchdog only turns the run
  // lengths it reports into T_degr alerts.
  const slo::BandClass cls =
      mode.acc.observe(r.demand, r.granted, band, r.has(SlotRecord::kFallback));
  if (cls == slo::BandClass::kIdle || cls == slo::BandClass::kAcceptable) {
    mode.tdegr_active = false;
    mode.open_tdegr = -1;
    return;
  }

  if (band.t_degr_minutes <= 0.0) return;
  const std::size_t run = mode.acc.current_run();
  const double run_minutes =
      static_cast<double>(run) * config_.minutes_per_sample;
  if (run_minutes <= band.t_degr_minutes) return;  // exactly-at-bound is ok
  if (!mode.tdegr_active) {
    mode.tdegr_active = true;
    Alert alert;
    alert.kind = AlertKind::kTDegr;
    alert.severity = AlertSeverity::kCritical;
    alert.app = r.app;
    alert.section = r.section;
    alert.failure_mode = r.has(SlotRecord::kFailureMode);
    alert.first_slot =
        r.slot - static_cast<std::uint32_t>((run - 1) * config_.stride);
    alert.duration_slots = static_cast<std::uint32_t>(run);
    alert.value = run_minutes;
    alert.threshold = band.t_degr_minutes;
    mode.open_tdegr = emit(alert);
  } else if (mode.open_tdegr >= 0) {
    Alert& open = alerts_[static_cast<std::size_t>(mode.open_tdegr)];
    open.duration_slots = static_cast<std::uint32_t>(run);
    open.value = run_minutes;
  }
}

void Watchdog::check_band_budget(ModeState& mode, const SlotRecord& r,
                                 const SloBand& band) {
  if (mode.band_alerted) return;
  const BandReport& counts = mode.acc.counts();
  const std::size_t active = counts.intervals - counts.idle;
  if (active < config_.band_warmup_slots) return;
  const double fraction_pct = counts.degraded_fraction() * 100.0;
  if (fraction_pct <= band.m_degr_percent()) return;
  mode.band_alerted = true;
  Alert alert;
  alert.kind = AlertKind::kBandBudget;
  alert.severity = AlertSeverity::kWarning;
  alert.app = r.app;
  alert.section = r.section;
  alert.failure_mode = r.has(SlotRecord::kFailureMode);
  alert.first_slot = r.slot;
  alert.value = fraction_pct;
  alert.threshold = band.m_degr_percent();
  emit(alert);
}

void Watchdog::check_overcommit(AppState& app, const SlotRecord& r) {
  // CoS1 is the guaranteed class and is served first; a total grant below
  // the CoS1 request means the guarantee itself was scaled back. Silent
  // slots (unhosted, migration outage) are unserved demand, not overcommit.
  const bool silent =
      r.has(SlotRecord::kUnhosted) || r.has(SlotRecord::kOutage);
  const bool breach = !silent && slo::cos1_overcommitted(r.cos1, r.granted);
  if (!breach) {
    app.overcommit_active = false;
    app.open_overcommit = -1;
    return;
  }
  const double ratio = r.granted / r.cos1;
  const bool contiguous =
      app.overcommit_active &&
      r.slot == app.last_overcommit_slot + config_.stride;
  app.last_overcommit_slot = r.slot;
  if (!contiguous) {
    app.overcommit_active = true;
    Alert alert;
    alert.kind = AlertKind::kCos1Overcommit;
    alert.severity = AlertSeverity::kCritical;
    alert.app = r.app;
    alert.section = r.section;
    alert.failure_mode = r.has(SlotRecord::kFailureMode);
    alert.first_slot = r.slot;
    alert.duration_slots = 1;
    alert.value = ratio;
    alert.threshold = 1.0;
    app.open_overcommit = emit(alert);
    return;
  }
  if (app.open_overcommit >= 0) {
    Alert& open = alerts_[static_cast<std::size_t>(app.open_overcommit)];
    open.duration_slots += 1;
    open.value = std::min(open.value, ratio);
  }
}

void Watchdog::update_theta(const SlotRecord& r) {
  const bool pool = r.app == kPoolApp;
  slo::ThetaAccumulator& section =
      (pool ? theta_pool_ : theta_app_)
          .try_emplace(r.section, config_.slots_per_day)
          .first->second;
  const std::size_t group = section.group_of(r.slot);
  const double before = section.ratio(group);
  section.add(r.slot, r.cos2, r.satisfied2);
  const double after = section.ratio(group);
  // Only the exact pool sums alert; per-app estimates merely report.
  if (pool && after < config_.theta && before >= config_.theta) {
    Alert alert;
    alert.kind = AlertKind::kTheta;
    alert.severity = AlertSeverity::kWarning;
    alert.app = kPoolApp;
    alert.section = r.section;
    alert.first_slot = r.slot;
    alert.value = after;
    alert.threshold = config_.theta;
    emit(alert);
  }
}

void Watchdog::observe(const SlotRecord& r) {
  if (r.app == kPoolApp) {
    // Band occupancy and overcommit are per-application contracts; the
    // aggregate feeds the pool-level theta statistic only.
    update_theta(r);
    return;
  }
  AppState& app = apps_.try_emplace(r.app, config_.minutes_per_sample)
                      .first->second;
  if (!app.seen || app.section != r.section) {
    // A new trial (or evaluation pass) is a new world: no run crosses it.
    end_run(app.mode[0]);
    end_run(app.mode[1]);
    app.overcommit_active = false;
    app.open_overcommit = -1;
    app.section = r.section;
    app.seen = true;
  }
  const bool failure = r.has(SlotRecord::kFailureMode);
  ModeState& current = app.mode[failure ? 1 : 0];
  ModeState& other = app.mode[failure ? 0 : 1];
  // A slot of this mode ends the other mode's run — the rule
  // wlm::run_event_schedule's judges apply at each mode switch.
  end_run(other);
  const SloBand& band = failure ? config_.failure : config_.normal;
  classify(current, r, band);
  check_band_budget(current, r, band);
  check_overcommit(app, r);
  update_theta(r);
}

void Watchdog::finish() {
  if (finished_) return;
  finished_ = true;
  // Open runs (a breach spanning end-of-trace) keep their alerts; the
  // durations written during streaming are already final.
  for (auto& [id, app] : apps_) {
    end_run(app.mode[0]);
    end_run(app.mode[1]);
    app.overcommit_active = false;
    app.open_overcommit = -1;
  }
}

namespace {

using json::read_count;

/// An open run's alert: -1 (none, or its alert was dropped) or an index
/// into the `alerts` already restored — later ticks rewrite that alert.
std::ptrdiff_t read_open_alert(const json::Value& v, std::string_view key,
                               std::size_t alerts) {
  if (v.at(key).as_number() == -1.0) return -1;
  const std::size_t index = read_count(v, key);
  if (index >= alerts) {
    throw IoError("watchdog state: '" + std::string(key) + "' is alert " +
                  std::to_string(index) + " of " + std::to_string(alerts));
  }
  return static_cast<std::ptrdiff_t>(index);
}

}  // namespace

void write_band_state(json::Writer& w, const slo::BandAccumulator& acc) {
  const slo::BandAccumulator::State s = acc.state();
  w.begin_object();
  w.key("intervals").value(s.counts.intervals);
  w.key("idle").value(s.counts.idle);
  w.key("acceptable").value(s.counts.acceptable);
  w.key("degraded").value(s.counts.degraded);
  w.key("violating").value(s.counts.violating);
  w.key("degraded_telemetry").value(s.counts.degraded_telemetry);
  w.key("violating_telemetry").value(s.counts.violating_telemetry);
  w.key("longest_degraded_minutes").value(s.counts.longest_degraded_minutes);
  w.key("run").value(s.run);
  w.key("longest").value(s.longest);
  w.end_object();
}

void read_band_state(const json::Value& v, slo::BandAccumulator& acc) {
  slo::BandAccumulator::State s;
  s.counts.intervals = read_count(v, "intervals");
  s.counts.idle = read_count(v, "idle");
  s.counts.acceptable = read_count(v, "acceptable");
  s.counts.degraded = read_count(v, "degraded");
  s.counts.violating = read_count(v, "violating");
  s.counts.degraded_telemetry = read_count(v, "degraded_telemetry");
  s.counts.violating_telemetry = read_count(v, "violating_telemetry");
  s.counts.longest_degraded_minutes =
      v.at("longest_degraded_minutes").as_number();
  s.run = read_count(v, "run");
  s.longest = read_count(v, "longest");
  acc.restore(s);
}

namespace {

void write_theta_sections(
    json::Writer& w,
    const std::map<std::uint16_t, slo::ThetaAccumulator>& sections) {
  w.begin_array();
  for (const auto& [section, acc] : sections) {
    w.begin_object();
    w.key("section").value(static_cast<std::size_t>(section));
    w.key("requested").begin_array();
    for (const double r : acc.requested_raw()) w.value(r);
    w.end_array();
    w.key("satisfied").begin_array();
    for (const double s : acc.satisfied_raw()) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void read_theta_sections(const json::Value& v, std::size_t slots_per_day,
                         std::map<std::uint16_t, slo::ThetaAccumulator>& out) {
  out.clear();
  for (const json::Value& item : v.as_array()) {
    const auto section =
        static_cast<std::uint16_t>(read_count(item, "section"));
    std::vector<double> requested;
    std::vector<double> satisfied;
    for (const json::Value& r : item.at("requested").as_array()) {
      requested.push_back(r.as_number());
    }
    for (const json::Value& s : item.at("satisfied").as_array()) {
      satisfied.push_back(s.as_number());
    }
    slo::ThetaAccumulator acc(slots_per_day);
    acc.restore(requested, satisfied);
    out.emplace(section, std::move(acc));
  }
}

}  // namespace

void Watchdog::save_state(json::Writer& w) const {
  w.begin_object();
  w.key("finished").value(finished_);
  w.key("alerts_dropped").value(static_cast<std::int64_t>(alerts_dropped_));
  w.key("alerts").begin_array();
  for (const Alert& a : alerts_) {
    w.begin_object();
    w.key("kind").value(static_cast<std::size_t>(a.kind));
    w.key("severity").value(static_cast<std::size_t>(a.severity));
    w.key("app").value(static_cast<std::size_t>(a.app));
    w.key("section").value(static_cast<std::size_t>(a.section));
    w.key("failure_mode").value(a.failure_mode);
    w.key("first_slot").value(static_cast<std::size_t>(a.first_slot));
    w.key("duration_slots").value(static_cast<std::size_t>(a.duration_slots));
    w.key("value").value(a.value);
    w.key("threshold").value(a.threshold);
    w.end_object();
  }
  w.end_array();
  w.key("apps").begin_array();
  for (const auto& [id, app] : apps_) {
    w.begin_object();
    w.key("id").value(static_cast<std::size_t>(id));
    w.key("seen").value(app.seen);
    w.key("section").value(static_cast<std::size_t>(app.section));
    w.key("overcommit_active").value(app.overcommit_active);
    w.key("open_overcommit")
        .value(static_cast<std::int64_t>(app.open_overcommit));
    w.key("last_overcommit_slot")
        .value(static_cast<std::size_t>(app.last_overcommit_slot));
    w.key("modes").begin_array();
    for (const ModeState& mode : app.mode) {
      w.begin_object();
      w.key("acc");
      write_band_state(w, mode.acc);
      w.key("tdegr_active").value(mode.tdegr_active);
      w.key("open_tdegr").value(static_cast<std::int64_t>(mode.open_tdegr));
      w.key("band_alerted").value(mode.band_alerted);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("theta_pool");
  write_theta_sections(w, theta_pool_);
  w.key("theta_app");
  write_theta_sections(w, theta_app_);
  w.end_object();
}

void Watchdog::load_state(const json::Value& v) {
  finished_ = v.at("finished").as_bool();
  alerts_dropped_ = static_cast<std::uint64_t>(read_count(v, "alerts_dropped"));
  alerts_.clear();
  for (const json::Value& item : v.at("alerts").as_array()) {
    Alert a;
    a.kind = static_cast<AlertKind>(read_count(item, "kind"));
    a.severity = static_cast<AlertSeverity>(read_count(item, "severity"));
    a.app = static_cast<std::uint16_t>(read_count(item, "app"));
    a.section = static_cast<std::uint16_t>(read_count(item, "section"));
    a.failure_mode = item.at("failure_mode").as_bool();
    a.first_slot = static_cast<std::uint32_t>(read_count(item, "first_slot"));
    a.duration_slots =
        static_cast<std::uint32_t>(read_count(item, "duration_slots"));
    a.value = item.at("value").as_number();
    a.threshold = item.at("threshold").as_number();
    alerts_.push_back(a);
  }
  apps_.clear();
  for (const json::Value& item : v.at("apps").as_array()) {
    const auto id = static_cast<std::uint16_t>(read_count(item, "id"));
    AppState& app =
        apps_.try_emplace(id, config_.minutes_per_sample).first->second;
    app.seen = item.at("seen").as_bool();
    app.section = static_cast<std::uint16_t>(read_count(item, "section"));
    app.overcommit_active = item.at("overcommit_active").as_bool();
    app.open_overcommit =
        read_open_alert(item, "open_overcommit", alerts_.size());
    app.last_overcommit_slot =
        static_cast<std::uint32_t>(read_count(item, "last_overcommit_slot"));
    const auto& modes = item.at("modes").as_array();
    if (modes.size() != 2) throw IoError("watchdog state: expected 2 modes");
    for (std::size_t m = 0; m < 2; ++m) {
      const json::Value& mv = modes[m];
      read_band_state(mv.at("acc"), app.mode[m].acc);
      app.mode[m].tdegr_active = mv.at("tdegr_active").as_bool();
      app.mode[m].open_tdegr =
          read_open_alert(mv, "open_tdegr", alerts_.size());
      app.mode[m].band_alerted = mv.at("band_alerted").as_bool();
    }
  }
  read_theta_sections(v.at("theta_pool"), config_.slots_per_day, theta_pool_);
  read_theta_sections(v.at("theta_app"), config_.slots_per_day, theta_app_);
}

std::vector<std::uint16_t> Watchdog::apps() const {
  std::vector<std::uint16_t> ids;
  ids.reserve(apps_.size());
  for (const auto& [id, state] : apps_) ids.push_back(id);
  return ids;  // std::map: ascending; kPoolApp (0xFFFF) sorts last
}

const BandReport* Watchdog::report(std::uint16_t app,
                                   bool failure_mode) const {
  const auto it = apps_.find(app);
  if (it == apps_.end()) return nullptr;
  const ModeState& mode = it->second.mode[failure_mode ? 1 : 0];
  if (mode.acc.counts().intervals == 0) return nullptr;
  return &mode.acc.counts();
}

double Watchdog::theta() const {
  double theta = 1.0;
  for (const auto& [section, state] : theta_sections()) {
    // Min of per-section kernel minima == the global ascending-group min.
    theta = std::min(theta, state.theta());
  }
  return theta;
}

std::vector<Watchdog::ThetaPoint> Watchdog::theta_trajectory() const {
  const auto& sections = theta_sections();
  std::vector<ThetaPoint> points;
  points.reserve(sections.size());
  for (const auto& [section, state] : sections) {
    ThetaPoint point;
    point.section = section;
    point.theta = state.theta();
    points.push_back(point);
  }
  return points;
}

}  // namespace ropus::obs
