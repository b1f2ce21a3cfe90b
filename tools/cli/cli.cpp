#include "cli/cli.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "cli/commands.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/signals.h"
#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace ropus::cli {

namespace {
void usage(std::ostream& os) {
  os << "usage: ropus_cli <command> [flags]\n"
        "\n"
        "commands:\n"
        "  generate     synthesize demand traces           "
        "(--out= --weeks=4 --apps=26 --seed=2006)\n"
        "  analyze      per-application demand statistics  "
        "(--traces=)\n"
        "  translate    QoS translation per application    "
        "(--traces= --theta= --ulow= --uhigh= --udegr= --m= [--tdegr=] "
        "[--epochs=])\n"
        "  consolidate  place workloads onto a pool        "
        "(--traces= --servers=13 --cpus=16 + translate flags)\n"
        "  failover     single-failure sweep               "
        "(consolidate flags + --failure-ulow= etc.)\n"
        "  faultsim     Monte-Carlo fault injection        "
        "(--traces= --servers= --trials=200 --seed=2006 --mtbf= --mttr= "
        "[--spares=] [--surge-rate=] [--telemetry-drop= ...] [--out=] "
        "[--json-out=] + failover flags)\n"
        "  wlm          per-app controller simulation       "
        "(--traces= [--policy=reactive] [--telemetry-drop= --telemetry-stale= "
        "--telemetry-corrupt= ...] [--fallback=hold|decay|floor] [--out=])\n"
        "  forecast     project demand forward              "
        "(--traces= --horizon=1 [--out=])\n"
        "  plan         long-term capacity projection       "
        "(--traces= --growth=0.01 --horizon=26 [--json])\n"
        "  whatif       scenario comparison                 "
        "(--traces= [--scale=app:1.5,..] [--remove=app,..] "
        "[--shift=app:minutes,..])\n"
        "  backtest     out-of-sample commitment check      "
        "(--traces= [--train-weeks=W-1])\n"
        "  report       SLO-attainment report from flight recordings\n"
        "               (--records=rec[,rec..] [--bench=dir|file,..] "
        "[--json-out=] + QoS flags,\n"
        "               --failure-ulow= etc. for failure-mode bands,\n"
        "               [--alerts] for an offline burn-rate replay)\n"
        "  serve        long-running arbiter daemon (NDJSON on stdin, or a\n"
        "               socket with --socket=/--port=; see docs/serve.md)\n"
        "               ([--checkpoint=] [--journal=] [--checkpoint-every=64] "
        "[--compact]\n"
        "               [--socket=path | --port=N [--host=]] "
        "[--max-connections=64]\n"
        "               [--read-timeout=30] [--write-timeout=30] "
        "[--queue=1024]\n"
        "               [--http-port=N] [--drain-grace=S] "
        "[--slow-request-ms=T]\n"
        "               [--max-slot-gap=288] [--servers=13 --cpus=16] + QoS "
        "flags)\n"
        "  connect      NDJSON client for a socket-mode serve daemon\n"
        "               (--socket=path | --port=N [--host=]; requests on "
        "stdin,\n"
        "               [--deadline=30] [--attempts=5] [--retry-seed=1] "
        "[--id-prefix=cli])\n"
        "  top          live daemon view: polls a socket-mode serve daemon's\n"
        "               stats verb and redraws (--socket=path | --port=N "
        "[--host=],\n"
        "               [--interval=2] [--once] for a single JSON dump,\n"
        "               [--json] for machine-readable one-shot output)\n"
        "  profile      work with folded CPU profiles from --profile-out or\n"
        "               /debug/profile (--render=f [--out=x.svg] [--title=] |\n"
        "               --aggregate a b .. [--out=] | --diff old new "
        "[--limit=]\n"
        "               [--gate=pct] | --top f [--limit=20])\n"
        "\n"
        "global flags (every command, see docs/observability.md):\n"
        "  --metrics-out=<path>   write the final metric snapshot "
        "(.json/.csv/.prom by extension)\n"
        "  --trace-out=<path>     collect spans, write Chrome trace-event "
        "JSON\n"
        "  --run-manifest=<path>  write a reproducibility manifest (command, "
        "flags, seed,\n"
        "                         git describe, wall time, peak RSS, "
        "metrics)\n"
        "  --log-level=<level>    debug|info|warn|error|off (overrides "
        "ROPUS_LOG)\n"
        "  --metrics-interval=<s> rewrite the artifacts above every s "
        "seconds while\n"
        "                         running (atomic; SIGUSR1 also triggers a "
        "flush)\n"
        "  --threads=<n>          worker threads for sharded loops "
        "(faultsim trials,\n"
        "                         genetic offspring; default: hardware; "
        "output is\n"
        "                         byte-identical at any value)\n"
        "  --record-out=<path[:stride[:ring]]>\n"
        "                         per-slot flight recording (.csv = CSV, "
        "else binary;\n"
        "                         stride N = every Nth slot, ring = newest "
        "records kept, 0 = all)\n"
        "  --profile-out=<path[:hz]>\n"
        "                         sample this process's CPU at hz (default "
        "99) and write\n"
        "                         the profile on exit: .svg = flamegraph, "
        ".json = full\n"
        "                         profile, else folded stacks (see "
        "docs/observability.md)\n"
        "\n"
        "common QoS flags default to the paper's case study: U_low=0.5,\n"
        "U_high=0.66, U_degr=0.9, M=97, theta=0.95, deadline=60.\n";
}

/// Runs the named command, or nullopt for an unknown command name.
std::optional<int> dispatch(const std::string& command, const Flags& flags,
                            std::ostream& out, std::ostream& err) {
  if (command == "generate") return cmd_generate(flags, out, err);
  if (command == "analyze") return cmd_analyze(flags, out, err);
  if (command == "translate") return cmd_translate(flags, out, err);
  if (command == "consolidate") return cmd_consolidate(flags, out, err);
  if (command == "failover") return cmd_failover(flags, out, err);
  if (command == "faultsim") return cmd_faultsim(flags, out, err);
  if (command == "wlm") return cmd_wlm(flags, out, err);
  if (command == "forecast") return cmd_forecast(flags, out, err);
  if (command == "plan") return cmd_plan(flags, out, err);
  if (command == "whatif") return cmd_whatif(flags, out, err);
  if (command == "backtest") return cmd_backtest(flags, out, err);
  if (command == "report") return cmd_report(flags, out, err);
  if (command == "serve") return cmd_serve(flags, out, err);
  if (command == "connect") return cmd_connect(flags, out, err);
  if (command == "top") return cmd_top(flags, out, err);
  if (command == "profile") return cmd_profile(flags, out, err);
  return std::nullopt;
}

/// Applies --threads: the process-wide budget for sharded loops (faultsim
/// trials, genetic offspring). Sharded results are byte-identical at any
/// value; 1 runs the plain serial loops.
void apply_thread_count(const Flags& flags) {
  if (!flags.has("threads")) return;
  const std::size_t threads = flags.get_size("threads", 0);
  ROPUS_REQUIRE(threads >= 1, "--threads must be >= 1");
  parallel::set_thread_count(threads);
}

/// Applies --log-level (flag wins over the ROPUS_LOG environment variable).
void apply_log_level(const Flags& flags) {
  log::init_level_from_env();
  if (const auto level = flags.get("log-level")) {
    const auto parsed = log::parse_level(*level);
    ROPUS_REQUIRE(parsed.has_value(),
                  "--log-level must be debug, info, warn, error or off (got '" +
                      *level + "')");
    log::set_level(*parsed);
  }
}

/// --profile-out=<path[:hz]>: a trailing all-digit `:hz` suffix (after the
/// last path separator, so `C:\...` style paths and plain filenames with
/// colons keep working) overrides the default 99 Hz sampling rate.
struct ProfileSpec {
  std::string path;
  int hz = obs::prof::Profiler::kDefaultHz;
};

ProfileSpec parse_profile_spec(const std::string& spec) {
  ProfileSpec out;
  out.path = spec;
  const std::size_t colon = spec.rfind(':');
  const std::size_t slash = spec.rfind('/');
  if (colon != std::string::npos && colon + 1 < spec.size() &&
      (slash == std::string::npos || colon > slash)) {
    const std::string tail = spec.substr(colon + 1);
    const bool digits =
        std::all_of(tail.begin(), tail.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    if (digits) {
      ROPUS_REQUIRE(tail.size() <= 4,
                    "--profile-out rate must be 1..1000 Hz (got '" + tail +
                        "')");
      out.path = spec.substr(0, colon);
      out.hz = std::stoi(tail);
      ROPUS_REQUIRE(out.hz >= 1 && out.hz <= 1000,
                    "--profile-out rate must be 1..1000 Hz (got '" + tail +
                        "')");
    }
  }
  ROPUS_REQUIRE(!out.path.empty(), "--profile-out needs a file path");
  return out;
}

/// Writes the captured profile in the format the path's extension names:
/// .svg = self-contained flamegraph, .json = full profile (stacks + span
/// attribution + capture metadata), anything else = folded stacks with a
/// `#` header line. Atomic like every other run artifact.
void write_profile_artifact(const std::string& path,
                            const std::string& command,
                            const obs::prof::Profile& profile) {
  std::string body;
  if (path.ends_with(".svg")) {
    body = obs::prof::flamegraph_svg(profile.stacks, "ropus_cli " + command);
  } else if (path.ends_with(".json")) {
    body = obs::prof::profile_to_json(profile) + "\n";
  } else {
    char header[160];
    std::snprintf(header, sizeof(header),
                  "# ropus_cli %s profile: %llu samples, %d Hz, %.2fs, "
                  "%llu threads, %llu dropped\n",
                  command.c_str(),
                  static_cast<unsigned long long>(profile.samples), profile.hz,
                  profile.duration_seconds,
                  static_cast<unsigned long long>(profile.threads),
                  static_cast<unsigned long long>(profile.dropped));
    body = header + obs::prof::to_folded(profile.stacks);
  }
  io::write_file_atomic(path, body);
}

/// Emits the observability outputs after the command body finished. Runs
/// for every normal return — including domain exits like faultsim's
/// "unsupported trials" code 2 — so a failing run still documents itself.
void write_run_outputs(const std::string& command, const Flags& flags,
                       int exit_code, double wall_seconds) {
  const auto metrics_out = flags.get("metrics-out");
  const auto trace_out = flags.get("trace-out");
  const auto manifest_out = flags.get("run-manifest");
  if (!metrics_out && !trace_out && !manifest_out) return;

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  if (metrics_out) obs::write_snapshot(*metrics_out, snapshot);
  if (trace_out) obs::write_trace_json(*trace_out);
  if (manifest_out) {
    obs::RunManifest manifest;
    manifest.tool = "ropus_cli";
    manifest.command = command;
    for (const auto& [name, value] : flags.all()) {
      manifest.flags.emplace_back(name, value);
    }
    manifest.positional = flags.positional();
    if (flags.has("seed")) {
      manifest.seed = static_cast<std::uint64_t>(flags.get_size("seed", 0));
    }
    manifest.git_describe = obs::build_git_describe();
    manifest.wall_seconds = wall_seconds;
    manifest.peak_rss_kb = obs::peak_rss_kb();
    manifest.exit_code = exit_code;
    obs::write_manifest(*manifest_out, manifest, &snapshot);
  }
}
/// Periodic observability flusher: rewrites --metrics-out / --trace-out /
/// --run-manifest every --metrics-interval seconds, and immediately on
/// SIGUSR1, so a long-running command (the serve daemon above all) can be
/// inspected from disk without waiting for exit. Every write is the same
/// atomic rewrite the end-of-run path uses; interim manifests carry
/// exit_code -1 ("still running"), and the final end-of-run write wins.
class PeriodicFlusher {
 public:
  PeriodicFlusher(std::string command, const Flags& flags, double interval_s,
                  double start_seconds)
      : command_(std::move(command)),
        flags_(flags),
        interval_(interval_s),
        start_(start_seconds),
        thread_([this] { loop(); }) {}

  ~PeriodicFlusher() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    double last = start_;
    for (;;) {
      // Wake every 100ms: often enough that a SIGUSR1 flush feels
      // immediate, cheap enough to be invisible next to any real work.
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [this] { return stop_; });
      if (stop_) return;
      const double now = obs::monotonic_seconds();
      const bool due = interval_ > 0.0 && now - last >= interval_;
      if (!due && !signals::consume_flush_request()) continue;
      last = now;
      write_run_outputs(command_, flags_, /*exit_code=*/-1, now - start_);
    }
  }

  std::string command_;
  const Flags& flags_;
  double interval_ = 0.0;
  double start_ = 0.0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};
}  // namespace

int run(std::span<const std::string> args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    usage(args.empty() ? err : out);
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  try {
    const Flags flags(args.subspan(1));
    apply_log_level(flags);
    apply_thread_count(flags);
    // Every worker the parallel pool spawns registers with the sampling
    // profiler, so a capture (--profile-out here, /debug/profile in serve)
    // sees sharded loops, not just the main thread. Registration without an
    // active capture is a cheap TLS setup; the hook is installed
    // unconditionally so mid-capture pool churn is covered too.
    parallel::set_thread_start_hook(&obs::prof::register_current_thread);
    obs::prof::register_current_thread();
    // SIGTERM/SIGINT request cooperative termination: long-running commands
    // (faultsim trials, report recordings, the serve daemon) poll the flag
    // and wind down, so the recorder/metrics/manifest outputs below still
    // flush instead of dying half-written.
    signals::install_termination_handlers();
    if (flags.has("trace-out")) obs::Tracer::global().set_enabled(true);

    // --record-out installs the process-global flight recorder before the
    // command body runs. The recorder writes nothing until finish(): on an
    // exception the unique_ptr just destroys it (deactivating, no file), so
    // a failed run never leaves a truncated recording — but every normal
    // return, including domain exits like faultsim's code 2, flushes the
    // (possibly partial) recording atomically.
    std::unique_ptr<obs::Recorder> recorder;
    if (const auto spec = flags.get("record-out")) {
      recorder = std::make_unique<obs::Recorder>(obs::parse_record_spec(*spec));
      obs::Recorder::set_active(recorder.get());
    }

    const double start = obs::monotonic_seconds();

    // --metrics-interval / SIGUSR1: periodic atomic rewrites of the
    // observability artifacts while the command is still running. The
    // flusher is stopped (joined) before the final end-of-run write below
    // so the last write always carries the real exit code.
    std::unique_ptr<PeriodicFlusher> flusher;
    const double metrics_interval = flags.get_double("metrics-interval", 0.0);
    ROPUS_REQUIRE(metrics_interval >= 0.0, "--metrics-interval must be >= 0");
    if (flags.has("metrics-out") || flags.has("run-manifest") ||
        flags.has("trace-out")) {
      signals::install_flush_handler();
      flusher = std::make_unique<PeriodicFlusher>(command, flags,
                                                  metrics_interval, start);
    }

    // --profile-out samples the whole command body. Started last so setup
    // (flag parsing, recorder install) stays out of the profile; stopped
    // and flushed on every normal return — including domain exits like
    // faultsim's code 2 — so a failing run still leaves its profile.
    std::optional<ProfileSpec> profile_spec;
    if (const auto spec = flags.get("profile-out")) {
      profile_spec = parse_profile_spec(*spec);
      ROPUS_REQUIRE(obs::prof::Profiler::supported(),
                    "--profile-out: the sampling profiler is not supported "
                    "on this platform");
      ROPUS_REQUIRE(obs::prof::Profiler::global().start(profile_spec->hz),
                    "--profile-out: a profile capture is already active");
    }

    const std::optional<int> rc = dispatch(command, flags, out, err);
    flusher.reset();
    if (profile_spec.has_value()) {
      write_profile_artifact(profile_spec->path, command,
                             obs::prof::Profiler::global().stop());
    }
    if (!rc.has_value()) {
      err << "unknown command: " << command << "\n\n";
      usage(err);
      return 1;
    }
    if (recorder != nullptr) {
      obs::Recorder::set_active(nullptr);
      recorder->finish();
    }
    // A termination signal reports the conventional 128+SIGTERM-ish 130
    // (serve already returns it; other commands wound down cooperatively),
    // but only after every output above flushed.
    const int code =
        signals::termination_requested() && *rc == 0 ? 130 : *rc;
    write_run_outputs(command, flags, code, obs::monotonic_seconds() - start);
    return code;
  } catch (const InvalidArgument& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const IoError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace ropus::cli
