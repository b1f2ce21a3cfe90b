#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli_util.h"
#include "cli/commands.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/json.h"
#include "common/signals.h"
#include "common/table.h"
#include "obs/burnrate.h"
#include "obs/recorder.h"
#include "obs/watchdog.h"
#include "qos/requirements.h"
#include "wlm/compliance.h"

namespace ropus::cli {

namespace {

std::vector<std::string> split_list(const std::string& spec) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(spec);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::string slot_coordinates(std::uint32_t slot, std::size_t slots_per_day) {
  const std::size_t spw = 7 * slots_per_day;
  std::ostringstream os;
  os << "w" << slot / spw << "/d" << (slot % spw) / slots_per_day << "/s"
     << slot % slots_per_day;
  return os.str();
}

/// One BENCH_<name>.json, summarized for the report.
struct BenchSummary {
  std::string path;
  std::string bench;
  double wall_seconds = 0.0;
  std::size_t phases = 0;
  std::size_t metrics = 0;
};

std::string read_text_file(const std::filesystem::path& path) {
  std::optional<std::string> content = io::read_file(path);
  if (!content) throw IoError("cannot open " + path.string());
  return std::move(*content);
}

BenchSummary read_bench(const std::filesystem::path& path) {
  const json::Value doc = json::parse(read_text_file(path));
  BenchSummary summary;
  summary.path = path.string();
  summary.bench = doc.at("bench").as_string();
  summary.wall_seconds = doc.at("wall_seconds").as_number();
  summary.phases = doc.at("phases").as_array().size();
  summary.metrics = doc.at("metrics").as_object().size();
  return summary;
}

std::vector<BenchSummary> collect_benches(const std::string& spec,
                                          std::ostream& err) {
  std::vector<BenchSummary> benches;
  for (const std::string& item : split_list(spec)) {
    const std::filesystem::path path(item);
    if (std::filesystem::is_directory(path)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("BENCH_") && name.ends_with(".json")) {
          files.push_back(entry.path());
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) {
        err << "warning: no BENCH_*.json under " << item << "\n";
      }
      for (const auto& file : files) benches.push_back(read_bench(file));
    } else {
      benches.push_back(read_bench(path));
    }
  }
  return benches;
}

/// Everything the report derives from one recording.
struct RecordingReport {
  std::string path;
  obs::Recording recording;
  obs::Watchdog watchdog;
  bool ok = true;
  std::vector<obs::BurnAlert> burn_log;     // fire/resolve transitions
  std::vector<obs::BurnAlert> burn_active;  // still firing at end

  RecordingReport(std::string p, obs::Recording r, obs::WatchdogConfig config)
      : path(std::move(p)), recording(std::move(r)), watchdog(config) {}
};

const char* severity_name(obs::AlertSeverity severity) {
  return severity == obs::AlertSeverity::kCritical ? "critical" : "warning";
}

/// Offline burn-rate replay for --alerts: walks the recorded slot range in
/// order, marking a slot bad when any watchdog alert covers it, and feeds
/// the same multi-window rules the live daemon evaluates. The result is
/// the fire/resolve transition log — the "would the pager have gone off,
/// and when would it have quieted" view of a recording.
void replay_burn(RecordingReport& report) {
  const double minutes_per_slot =
      report.recording.minutes_per_sample *
      static_cast<double>(std::max<std::size_t>(1, report.recording.stride));
  obs::BurnRate burn("slo", minutes_per_slot);
  if (report.recording.records.empty()) return;

  std::uint32_t first = report.recording.records.front().slot;
  std::uint32_t last = first;
  for (const obs::SlotRecord& r : report.recording.records) {
    first = std::min(first, r.slot);
    last = std::max(last, r.slot);
  }
  std::vector<bool> bad(static_cast<std::size_t>(last - first) + 1, false);
  for (const obs::Alert& a : report.watchdog.alerts()) {
    const std::uint32_t span = std::max<std::uint32_t>(1, a.duration_slots);
    for (std::uint32_t s = std::max(a.first_slot, first);
         s < a.first_slot + span && s <= last; ++s) {
      bad[s - first] = true;
    }
  }
  for (std::uint32_t slot = first; slot <= last; ++slot) {
    burn.observe(slot, 1, bad[slot - first] ? 1 : 0);
  }
  report.burn_log = burn.alerts();
  report.burn_active = burn.active_alerts();
}

}  // namespace

// Reads flight recordings (plus optional BENCH_*.json files) and replays
// them through the online watchdog, producing the SLO-attainment report the
// paper's contracts call for: per-app band attainment vs spec in each mode,
// the breach timeline, the theta trajectory across sections, and the
// watchdog alert log. The watchdog judges with the same kernel
// accumulators as wlm::run_event_schedule and sim::evaluate, so on a
// stride-1 recording of a schedule (wlm, faultsim) this reproduces the
// schedule's per-mode counts bit for bit.
int cmd_report(const Flags& flags, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> allowed{
      "records",       "ulow",          "uhigh",          "udegr",
      "m",             "tdegr",         "epochs",         "failure-ulow",
      "failure-uhigh", "failure-udegr", "failure-m",      "failure-tdegr",
      "failure-epochs", "theta",        "deadline",       "warmup-slots",
      "bench",         "out",           "json-out",       "alerts"};
  if (!check_flags(flags, allowed, err)) return 1;
  const auto records_spec = flags.get("records");
  if (!records_spec.has_value()) {
    err << "error: --records=<recording[,recording..]> is required\n";
    return 1;
  }
  const std::vector<std::string> paths = split_list(*records_spec);
  if (paths.empty()) {
    err << "error: --records names no recordings\n";
    return 1;
  }

  const qos::Requirement normal = requirement_from_flags(flags);
  qos::Requirement failure;
  if (flags.has("failure-ulow") || flags.has("failure-uhigh") ||
      flags.has("failure-udegr") || flags.has("failure-m") ||
      flags.has("failure-tdegr") || flags.has("failure-epochs")) {
    failure = requirement_from_flags(flags, "failure-");
  } else {
    // Mirror cmd_faultsim's default failure-mode bands, so a recording made
    // by `faultsim` with default flags is judged against the same spec.
    failure = normal;
    failure.m_percent = std::min(failure.m_percent, 97.0);
    failure.t_degr_minutes = 30.0;
  }
  const double theta_target = flags.get_double("theta", 0.95);

  std::vector<RecordingReport> reports;
  for (const std::string& path : paths) {
    // Recordings can be large; a termination signal stops between files so
    // the report (and any --metrics-out/--json-out) still flushes with the
    // recordings judged so far.
    if (signals::termination_requested()) {
      err << "report: interrupted; skipping remaining recordings\n";
      break;
    }
    obs::Recording recording = obs::read_recording(path);
    obs::WatchdogConfig config;
    config.normal = wlm::band_of(normal);
    config.failure = wlm::band_of(failure);
    config.theta = theta_target;
    config.minutes_per_sample = recording.minutes_per_sample;
    config.slots_per_day = recording.slots_per_day;
    config.stride = recording.stride;
    config.band_warmup_slots = flags.get_size("warmup-slots", 0);
    reports.emplace_back(path, std::move(recording), config);

    RecordingReport& report = reports.back();
    // Recordings interleave apps within a slot and (with concurrent
    // writers) may interleave chunks; the watchdog needs per-app slot
    // order, which (section, slot) ordering restores. stable_sort keeps
    // same-slot records (distinct apps) in written order.
    std::stable_sort(report.recording.records.begin(),
                     report.recording.records.end(),
                     [](const obs::SlotRecord& a, const obs::SlotRecord& b) {
                       if (a.section != b.section) return a.section < b.section;
                       return a.slot < b.slot;
                     });
    for (const obs::SlotRecord& record : report.recording.records) {
      report.watchdog.observe(record);
    }
    report.watchdog.finish();
    if (flags.get_bool("alerts", false)) replay_burn(report);
  }

  std::vector<BenchSummary> benches;
  if (const auto bench_spec = flags.get("bench")) {
    benches = collect_benches(*bench_spec, err);
  }

  bool all_ok = true;
  std::ostringstream body;
  body << "SLO attainment report\n";
  body << "  spec      : U_high=" << TextTable::num(normal.u_high, 2)
       << " U_degr=" << TextTable::num(normal.u_degr, 2)
       << " M=" << TextTable::num(normal.m_percent, 2) << "%";
  if (normal.t_degr_minutes.has_value()) {
    body << " T_degr=" << TextTable::num(*normal.t_degr_minutes, 0) << "min";
  }
  body << "\n";
  body << "  failure   : U_high=" << TextTable::num(failure.u_high, 2)
       << " U_degr=" << TextTable::num(failure.u_degr, 2)
       << " M=" << TextTable::num(failure.m_percent, 2) << "%";
  if (failure.t_degr_minutes.has_value()) {
    body << " T_degr=" << TextTable::num(*failure.t_degr_minutes, 0) << "min";
  }
  body << "\n";
  body << "  theta     : target " << TextTable::num(theta_target, 4) << "\n";

  for (RecordingReport& report : reports) {
    const obs::Recording& rec = report.recording;
    body << "\nrecording " << report.path << "\n";
    body << "  format    : "
         << (rec.format == obs::RecorderConfig::Format::kCsv ? "csv"
                                                             : "binary")
         << ", stride " << rec.stride << ", " << rec.records.size()
         << " records";
    if (rec.dropped > 0) {
      body << " (" << rec.dropped << " dropped by the ring bound)";
    }
    body << "\n";
    if (rec.stride > 1) {
      body << "  note      : stride > 1 — attainment and runs are "
              "approximations over sampled slots\n";
    }
    if (rec.dropped > 0) {
      body << "  note      : ring eviction dropped the oldest records — "
              "statistics cover the retained tail\n";
    }

    TextTable table({"app", "mode", "slots", "idle", "accept", "degraded",
                     "violating", "degraded%", "longest_min", "verdict"});
    for (const std::uint16_t app : report.watchdog.apps()) {
      for (const bool failure_mode : {false, true}) {
        const obs::BandReport* counts =
            report.watchdog.report(app, failure_mode);
        if (counts == nullptr) continue;
        const obs::SloBand& band =
            failure_mode ? wlm::band_of(failure) : wlm::band_of(normal);
        const bool ok = counts->satisfies(band);
        if (!ok) report.ok = false;
        table.add_row({rec.app_name(app), failure_mode ? "failure" : "normal",
                       std::to_string(counts->intervals),
                       std::to_string(counts->idle),
                       std::to_string(counts->acceptable),
                       std::to_string(counts->degraded),
                       std::to_string(counts->violating),
                       TextTable::num(counts->degraded_fraction() * 100.0, 2),
                       TextTable::num(counts->longest_degraded_minutes, 0),
                       ok ? "ok" : "FAIL"});
      }
    }
    body << "\n";
    table.render(body);

    const double theta = report.watchdog.theta();
    const bool theta_exact = report.watchdog.theta_exact();
    const bool theta_relevant = !report.watchdog.theta_trajectory().empty();
    body << "\n  theta     : " << TextTable::num(theta, 6)
         << " (target " << TextTable::num(theta_target, 4) << ")";
    if (!theta_exact && theta_relevant) body << " [per-app estimate]";
    // Only the exact pool-aggregate sums gate the verdict; the per-app
    // satisfied2 estimate is display-only.
    if (theta_exact && theta < theta_target) {
      report.ok = false;
      body << " FAIL";
    }
    body << "\n";
    const auto trajectory = report.watchdog.theta_trajectory();
    if (trajectory.size() > 1) {
      body << "  trajectory:";
      const std::size_t shown = std::min<std::size_t>(trajectory.size(), 12);
      for (std::size_t i = 0; i < shown; ++i) {
        body << " " << trajectory[i].section << ":"
             << TextTable::num(trajectory[i].theta, 4);
      }
      if (trajectory.size() > shown) {
        body << " .. (" << trajectory.size() - shown << " more)";
      }
      body << "\n";
    }
    if (!theta_relevant) {
      body << "  trajectory: no CoS2 demand recorded\n";
    }

    const std::vector<obs::Alert>& alerts = report.watchdog.alerts();
    body << "  alerts    : " << alerts.size();
    if (report.watchdog.alerts_dropped() > 0) {
      body << " (+" << report.watchdog.alerts_dropped() << " beyond the cap)";
    }
    body << "\n";
    const std::size_t shown = std::min<std::size_t>(alerts.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::Alert& a = alerts[i];
      body << "    [" << severity_name(a.severity) << "] "
           << obs::alert_kind_name(a.kind) << " "
           << (a.app == obs::kPoolApp ? std::string("pool")
                                      : rec.app_name(a.app))
           << (a.failure_mode ? " (failure mode)" : "") << " at slot "
           << a.first_slot << " ("
           << slot_coordinates(a.first_slot, rec.slots_per_day)
           << ", section " << a.section << ")";
      if (a.duration_slots > 1) body << " x" << a.duration_slots << " slots";
      body << ": " << TextTable::num(a.value, 4) << " vs "
           << TextTable::num(a.threshold, 4) << "\n";
    }
    if (alerts.size() > shown) {
      body << "    .. " << alerts.size() - shown << " more\n";
    }
    if (flags.get_bool("alerts", false)) {
      // --alerts: the offline burn-rate replay — when would the live
      // daemon's error-budget rules have fired and resolved over this
      // recording's alert timeline.
      body << "  burn-rate : " << report.burn_log.size() << " transitions, "
           << report.burn_active.size() << " firing at end\n";
      for (const obs::BurnAlert& a : report.burn_log) {
        body << "    " << obs::describe(a) << "\n";
      }
      for (const obs::BurnAlert& a : report.burn_active) {
        body << "    still firing at end: " << a.stream << "/" << a.rule
             << " (" << obs::burn_severity_name(a.severity)
             << ") since slot " << a.slot << "\n";
      }
    }
    if (!report.ok) all_ok = false;
  }

  if (!benches.empty()) {
    body << "\nbench results\n";
    TextTable table({"bench", "wall_s", "phases", "metrics", "path"});
    for (const BenchSummary& b : benches) {
      table.add_row({b.bench, TextTable::num(b.wall_seconds, 2),
                     std::to_string(b.phases), std::to_string(b.metrics),
                     b.path});
    }
    table.render(body);
  }

  body << "\nverdict: " << (all_ok ? "ok" : "SLO FAIL") << "\n";

  out << body.str();
  if (const auto path = flags.get("out"); path.has_value()) {
    io::write_file_atomic(*path, body.str());
  }
  if (const auto path = flags.get("json-out"); path.has_value()) {
    json::Writer w;
    w.begin_object();
    w.key("ok").value(all_ok);
    w.key("theta_target").value(theta_target);
    w.key("recordings").begin_array();
    for (const RecordingReport& report : reports) {
      const obs::Recording& rec = report.recording;
      w.begin_object();
      w.key("path").value(report.path);
      w.key("format").value(
          rec.format == obs::RecorderConfig::Format::kCsv ? "csv" : "binary");
      w.key("stride").value(rec.stride);
      w.key("records").value(rec.records.size());
      w.key("dropped").value(static_cast<std::size_t>(rec.dropped));
      w.key("ok").value(report.ok);
      w.key("theta").value(report.watchdog.theta());
      w.key("theta_exact").value(report.watchdog.theta_exact());
      w.key("theta_trajectory").begin_array();
      for (const auto& point : report.watchdog.theta_trajectory()) {
        w.begin_object();
        w.key("section").value(std::size_t{point.section});
        w.key("theta").value(point.theta);
        w.end_object();
      }
      w.end_array();
      w.key("attainment").begin_array();
      for (const std::uint16_t app : report.watchdog.apps()) {
        for (const bool failure_mode : {false, true}) {
          const obs::BandReport* counts =
              report.watchdog.report(app, failure_mode);
          if (counts == nullptr) continue;
          const obs::SloBand& band =
              failure_mode ? wlm::band_of(failure) : wlm::band_of(normal);
          w.begin_object();
          w.key("app").value(rec.app_name(app));
          w.key("mode").value(failure_mode ? "failure" : "normal");
          w.key("intervals").value(counts->intervals);
          w.key("idle").value(counts->idle);
          w.key("acceptable").value(counts->acceptable);
          w.key("degraded").value(counts->degraded);
          w.key("violating").value(counts->violating);
          w.key("degraded_telemetry").value(counts->degraded_telemetry);
          w.key("violating_telemetry").value(counts->violating_telemetry);
          w.key("degraded_percent")
              .value(counts->degraded_fraction() * 100.0);
          w.key("longest_degraded_minutes")
              .value(counts->longest_degraded_minutes);
          w.key("ok").value(counts->satisfies(band));
          w.end_object();
        }
      }
      w.end_array();
      w.key("alerts").begin_array();
      for (const obs::Alert& a : report.watchdog.alerts()) {
        w.begin_object();
        w.key("kind").value(obs::alert_kind_name(a.kind));
        w.key("severity").value(severity_name(a.severity));
        w.key("app").value(a.app == obs::kPoolApp ? std::string("<pool>")
                                                  : rec.app_name(a.app));
        w.key("section").value(std::size_t{a.section});
        w.key("failure_mode").value(a.failure_mode);
        w.key("first_slot").value(std::size_t{a.first_slot});
        w.key("duration_slots").value(std::size_t{a.duration_slots});
        w.key("value").value(a.value);
        w.key("threshold").value(a.threshold);
        w.end_object();
      }
      w.end_array();
      w.key("alerts_dropped")
          .value(static_cast<std::size_t>(report.watchdog.alerts_dropped()));
      if (flags.get_bool("alerts", false)) {
        w.key("burn_transitions").begin_array();
        for (const obs::BurnAlert& a : report.burn_log) {
          w.begin_object();
          w.key("stream").value(a.stream);
          w.key("rule").value(a.rule);
          w.key("severity").value(obs::burn_severity_name(a.severity));
          w.key("active").value(a.active);
          w.key("slot").value(static_cast<std::size_t>(a.slot));
          w.key("burn_short").value(a.burn_short);
          w.key("burn_long").value(a.burn_long);
          w.key("threshold").value(a.threshold);
          w.end_object();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.key("bench").begin_array();
    for (const BenchSummary& b : benches) {
      w.begin_object();
      w.key("bench").value(b.bench);
      w.key("path").value(b.path);
      w.key("wall_seconds").value(b.wall_seconds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    io::write_file_atomic(*path, w.str() + "\n");
  }
  return all_ok ? 0 : 2;
}

}  // namespace ropus::cli
