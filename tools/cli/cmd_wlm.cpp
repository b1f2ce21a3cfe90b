#include <sstream>
#include <string>
#include <vector>

#include "cli/cli_util.h"
#include "cli/commands.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/table.h"
#include "qos/translation.h"
#include "wlm/compliance.h"
#include "wlm/failure_drill.h"
#include "wlm/telemetry.h"

namespace ropus::cli {

// Runs each application's workload-manager control loop in isolation
// (wlm::run_isolated: granted = requested, no pool contention) with optional
// telemetry faults between the measured demand and the controller — the
// smallest harness that exposes the degraded-mode policies end to end.
int cmd_wlm(const Flags& flags, std::ostream& out, std::ostream& err) {
  std::vector<std::string> allowed{
      "traces", "theta", "deadline", "ulow",   "uhigh", "udegr",
      "m",      "tdegr", "epochs",   "policy", "window", "seed",
      "out"};
  append_telemetry_flag_names(allowed);
  if (!check_flags(flags, allowed, err)) return 1;
  const auto traces = load_traces(flags);
  const qos::Requirement req = requirement_from_flags(flags);
  const qos::CosCommitment cos2 = cos2_from_flags(flags);

  const std::string policy_name = flags.get_string("policy", "reactive");
  wlm::Policy policy = wlm::Policy::kReactive;
  if (policy_name == "reactive") {
    policy = wlm::Policy::kReactive;
  } else if (policy_name == "clairvoyant") {
    policy = wlm::Policy::kClairvoyant;
  } else if (policy_name == "windowed") {
    policy = wlm::Policy::kWindowedMax;
  } else {
    err << "error: --policy must be reactive, clairvoyant or windowed\n";
    return 1;
  }
  const std::size_t window = flags.get_size("window", 3);
  const auto seed = static_cast<std::uint64_t>(flags.get_size("seed", 2006));
  const wlm::TelemetryFaultModel telemetry = telemetry_from_flags(flags);
  const wlm::DegradedModeConfig degraded = degraded_from_flags(flags);

  const double minutes =
      static_cast<double>(traces.front().calendar().minutes_per_sample());
  SplitMix64 streams(seed);
  TextTable table({"app", "ok", "stale", "miss", "corrupt", "fallback",
                   "degraded%", "violating", "verdict"});
  wlm::HealthReport fleet_health;
  std::size_t violating_apps = 0;
  for (const trace::DemandTrace& t : traces) {
    const qos::Translation tr = qos::translate(t, req, cos2);
    // The channel is constructed (consuming one stream seed) even with
    // faults disabled so adding --telemetry-* flags never re-seeds apps.
    wlm::TelemetryChannel channel(telemetry, streams.next());
    // One replay per app, so a flight recording stays app-major.
    const wlm::ScheduleAppOutcome run =
        wlm::run_isolated(t, tr, policy, window, channel, degraded);
    const wlm::ComplianceReport& report = run.normal_mode;
    const wlm::HealthReport& health = run.telemetry;
    fleet_health.merge(health);
    const bool violates = report.violating > 0;
    if (violates) violating_apps += 1;
    table.add_row({t.name(), std::to_string(health.ok),
                   std::to_string(health.stale),
                   std::to_string(health.missing),
                   std::to_string(health.corrupt),
                   std::to_string(health.fallback_intervals),
                   TextTable::num(100.0 * report.degraded_fraction(), 2),
                   std::to_string(report.violating),
                   violates ? "VIOLATING" : "ok"});
  }

  std::ostringstream body;
  body << "wlm controller simulation\n";
  body << "  apps     : " << traces.size() << "\n";
  body << "  policy   : " << policy_name << " (window " << window << ")\n";
  if (telemetry.enabled()) {
    body << "  telemetry: drop " << TextTable::num(telemetry.drop_rate, 3)
         << ", stale " << TextTable::num(telemetry.stale_rate, 3)
         << ", corrupt " << TextTable::num(telemetry.corrupt_rate, 3)
         << ", noise " << TextTable::num(telemetry.noise_stddev, 3)
         << ", blackout " << TextTable::num(telemetry.blackout_rate, 3)
         << "\n";
    body << "  fallback : "
         << flags.get_string("fallback", "hold") << " (stale tolerance "
         << degraded.stale_tolerance << ")\n";
  } else {
    body << "  telemetry: perfect\n";
  }
  body << "\n";
  table.render(body);
  body << "\nfleet telemetry health\n";
  body << "  observations : " << fleet_health.intervals << " ("
       << fleet_health.ok << " ok, " << fleet_health.stale << " stale, "
       << fleet_health.missing << " missing, " << fleet_health.corrupt
       << " corrupt)\n";
  body << "  fallback     : " << fleet_health.fallback_intervals
       << " intervals across " << fleet_health.fallback_activations
       << " activations (longest blackout "
       << TextTable::num(
              static_cast<double>(fleet_health.longest_blackout) * minutes, 1)
       << " min)\n";
  body << "  violating    : " << violating_apps << " / " << traces.size()
       << " apps\n";

  out << body.str();
  if (const auto path = flags.get("out"); path.has_value()) {
    io::write_file_atomic(*path, body.str());
  }
  return violating_apps > 0 ? 2 : 0;
}

}  // namespace ropus::cli
