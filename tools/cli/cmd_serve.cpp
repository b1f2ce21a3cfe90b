#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli_util.h"
#include "cli/commands.h"
#include "common/json.h"
#include "serve/daemon.h"
#include "serve/transport.h"
#include "trace/calendar.h"
#include "wlm/compliance.h"

namespace ropus::cli {

// Long-running arbiter daemon: NDJSON requests on stdin, replies on
// stdout — or, with --socket/--port, over a Unix-domain/TCP listener. The
// deterministic core, persistence and drain behaviour live in src/serve;
// this command only translates flags into a ServeConfig, DaemonOptions
// and TransportOptions (see docs/serve.md for the protocol).
int cmd_serve(const Flags& flags, std::ostream& out, std::ostream& err) {
  std::vector<std::string> allowed{
      "theta",          "deadline",          "ulow",
      "uhigh",          "udegr",             "m",
      "tdegr",          "servers",           "cpus",
      "minutes",        "policy",            "window",
      "revenue-rate",   "penalty-rate",      "headroom-margin",
      "renegotiate-m",  "renegotiate-tdegr", "max-slot-gap",
      "checkpoint",     "journal",           "checkpoint-every",
      "queue",          "max-line-bytes",    "tick-deadline-ms",
      "compact",        "socket",            "host",
      "port",           "max-connections",   "read-timeout",
      "write-timeout",  "max-output-bytes",  "http-port",
      "drain-grace",    "slow-request-ms"};
  append_telemetry_flag_names(allowed);
  if (!check_flags(flags, allowed, err)) return 1;

  serve::ServeConfig config;
  config.normal = wlm::band_of(requirement_from_flags(flags));
  config.cos2 = cos2_from_flags(flags);
  config.minutes_per_sample = flags.get_double("minutes", 5.0);
  if (config.minutes_per_sample <= 0.0 ||
      static_cast<double>(trace::Calendar::kMinutesPerDay) /
              config.minutes_per_sample !=
          std::floor(static_cast<double>(trace::Calendar::kMinutesPerDay) /
                     config.minutes_per_sample)) {
    err << "error: --minutes must divide a day evenly\n";
    return 1;
  }
  config.slots_per_day = static_cast<std::size_t>(
      static_cast<double>(trace::Calendar::kMinutesPerDay) /
      config.minutes_per_sample);
  config.servers = flags.get_size("servers", 13);
  config.server_cpus = flags.get_double("cpus", 16.0);
  config.history_window = flags.get_size("window", 3);
  config.degraded = degraded_from_flags(flags);
  config.max_slot_gap = flags.get_size("max-slot-gap", 288);

  const std::string policy_name = flags.get_string("policy", "reactive");
  if (policy_name == "reactive") {
    config.policy = wlm::Policy::kReactive;
  } else if (policy_name == "clairvoyant") {
    config.policy = wlm::Policy::kClairvoyant;
  } else if (policy_name == "windowed") {
    config.policy = wlm::Policy::kWindowedMax;
  } else {
    err << "error: --policy must be reactive, clairvoyant or windowed\n";
    return 1;
  }

  config.admission.revenue_per_cpu = flags.get_double("revenue-rate", 1.0);
  config.admission.penalty_per_cpu = flags.get_double("penalty-rate", 2.0);
  config.admission.headroom_margin = flags.get_double("headroom-margin", 0.1);
  config.admission.renegotiate_m = flags.get_double("renegotiate-m", 90.0);
  config.admission.renegotiate_tdegr =
      flags.get_double("renegotiate-tdegr", 30.0);

  serve::DaemonOptions options;
  options.checkpoint_path = flags.get_string("checkpoint", "");
  options.journal_path = flags.get_string("journal", "");
  options.checkpoint_every_slots = flags.get_size("checkpoint-every", 64);
  options.compact_journal = flags.get_bool("compact", false);
  options.queue_capacity = flags.get_size("queue", 1024);
  options.max_line_bytes = flags.get_size("max-line-bytes", 1 << 20);
  options.tick_deadline_ms = flags.get_double("tick-deadline-ms", 0.0);
  options.slow_request_ms = flags.get_double("slow-request-ms", 0.0);

  config.validate();
  options.validate();

  if (flags.has("socket") || flags.has("port")) {
    serve::TransportOptions transport;
    transport.unix_path = flags.get_string("socket", "");
    transport.host = flags.get_string("host", "127.0.0.1");
    transport.port = static_cast<int>(flags.get_size("port", 0));
    transport.max_connections = flags.get_size("max-connections", 64);
    transport.read_timeout_s = flags.get_double("read-timeout", 30.0);
    transport.write_timeout_s = flags.get_double("write-timeout", 30.0);
    transport.max_output_bytes = flags.get_size("max-output-bytes", 1 << 20);
    // --http-port enables the scrape listener (/metrics, /healthz,
    // /stats.json); 0 asks for an ephemeral port, announced below.
    transport.http_port = flags.has("http-port")
                              ? static_cast<int>(flags.get_size("http-port", 0))
                              : -1;
    transport.drain_grace_s = flags.get_double("drain-grace", 0.0);
    transport.validate();
    serve::SocketServer server(config, options, transport);
    // Announce the resolved endpoint on stdout so a parent that asked for
    // an ephemeral port (--port 0 / --http-port 0) can learn what was bound.
    json::Writer w;
    w.begin_object();
    w.key("type").value("listening");
    w.key("address").value(server.address());
    w.key("port").value(static_cast<std::int64_t>(server.port()));
    if (server.http_port() >= 0) {
      w.key("http_port").value(static_cast<std::int64_t>(server.http_port()));
    }
    w.end_object();
    out << w.str() << '\n' << std::flush;
    return server.run(err);
  }
  return serve::run_daemon(config, options, std::cin, out, err);
}

}  // namespace ropus::cli
