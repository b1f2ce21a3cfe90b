// perfbench: the repo's end-to-end benchmark.
//
//   perfbench --workload <plan-26|serve-churn|faultsim-campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--corrupt-reference]
//
// --trace 0 runs checked closed-loop passes until --seconds have elapsed,
// with obs timing and span collection off, and sets the workload up afresh
// between them (setup_s is the median set-up); the gated timings are the
// best pass's.
// --trace 1 runs at one thread: one untraced pass, then two traced passes
// (obs timing on, one span around every layer call the benchmark makes)
// whose per-layer counts must agree exactly, then any workload-specific
// layer probe. The last line of standard output is the result as one JSON
// object; the lines before it are the human-readable report. Run through
// perfbench/run.py, which builds this binary first. Exit code 2 means bad
// arguments.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "common/file_io.h"
#include "common/parallel.h"
#include "harness.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {
namespace {

using namespace ropus;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric the traced run prints, on every workload (a layer
// a workload does not exercise reads 0).
constexpr LayerMetric kLayerMetrics[] = {
    {"qos.translate_s", "s"},
    {"qos.translate.calls", "count"},
    {"sim.evaluate.calls", "count"},
    {"sim.evaluate.slots", "count"},
    {"sim.required_capacity.searches", "count"},
    {"sim.replays_per_verdict", "ratio"},
    {"sim.required_capacity_s", "s"},
    {"sim.incremental.cache_hit_ratio", "ratio"},
    {"sim.incremental.delta_probes", "count"},
    {"sim.incremental.batch_fallbacks", "count"},
    {"placement.consolidate_s", "s"},
    {"placement.self_s", "s"},
    {"placement.genetic.generations", "count"},
    {"placement.genetic.evaluations", "count"},
    {"placement.memo_entries", "count"},
    {"failover.plan_s", "s"},
    {"failover.per_failure_s", "s"},
    {"failover.failures_swept", "count"},
    {"wlm.schedule.runs", "count"},
    {"wlm.schedule.slots", "count"},
    {"wlm.schedule_s", "s"},
    {"faultsim.trial_p50_ms", "ms"},
    {"faultsim.trial_p95_ms", "ms"},
    {"faultsim.events", "count"},
    {"faultsim.parallel_efficiency", "ratio"},
    {"serve.parse_us", "us"},
    {"serve.arbiter.tick_us", "us"},
    {"serve.arbiter.admit_ms", "ms"},
    {"serve.journal.append_us", "us"},
    {"serve.journal_bytes", "bytes"},
    {"serve.checkpoint_ms", "ms"},
    {"serve.checkpoint_bytes", "bytes"},
    {"serve.admission.accepted", "count"},
    {"serve.admission.rejected", "count"},
    {"bench.span_self_s", "s"},
    {"qos.span_self_s", "s"},
    {"placement.span_self_s", "s"},
    {"failover.span_self_s", "s"},
    {"wlm.span_self_s", "s"},
    {"faultsim.span_self_s", "s"},
    {"serve.span_self_s", "s"},
    {"obs.trace_overhead_pct", "%"},
};

// Registry counters copied verbatim into the per-layer table.
constexpr const char* kRegistryCounters[] = {
    "qos.translate.calls",          "sim.evaluate.calls",
    "sim.evaluate.slots",           "sim.required_capacity.searches",
    "sim.incremental.delta_probes", "sim.incremental.batch_fallbacks",
    "placement.genetic.generations", "placement.genetic.evaluations",
    "wlm.schedule.runs",            "wlm.schedule.slots",
    "serve.admission.accepted",     "serve.admission.rejected",
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<plan-26|serve-churn|faultsim-campaign> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--corrupt-reference]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "plan-26") return make_plan26(o);
  if (o.workload == "serve-churn") return make_serve_churn(o);
  if (o.workload == "faultsim-campaign") return make_faultsim_campaign(o);
  usage("unknown workload " + o.workload);
}

/// Effective parallelism: one calibrated spin on one thread, then the same
/// spin on every hardware thread at once. On a host that time-shares its
/// vCPUs the concurrent spins stretch, and nproc * t1 / tN says how many
/// cores the run really gets. Run context, not a gated metric.
double effective_cores(std::size_t threads) {
  const auto spin = [](std::uint64_t iterations) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  std::uint64_t iterations = 1 << 20;
  double single = 0.0;
  for (;;) {  // calibrate to ~50 ms of spinning
    const double t0 = wall_seconds();
    spin(iterations);
    single = wall_seconds() - t0;
    if (single >= 0.05) break;
    iterations *= 2;
  }
  const double t0 = wall_seconds();
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(spin, iterations);
  for (std::thread& t : pool) t.join();
  const double all = wall_seconds() - t0;
  return static_cast<double>(threads) * single / all;
}

void print_metric(const Metric& m) {
  std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_checks(const Checks& checks) {
  const double rate =
      checks.attempted() == 0
          ? 0.0
          : static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted());
  print_metric({"error_rate", rate, "ratio"});
  for (const std::string& f : checks.failures()) {
    std::printf("check failed: %s\n", f.c_str());
  }
}

// Set-up is sampled across the whole run, not in one burst before it: the
// host's slow spells last from seconds to minutes, and a burst measures
// whichever spell it falls in. Between passes the run sets up fresh
// workloads (and drops them) until set-up has had kSetupShare of the time
// elapsed, and at least kMinSetups times in all; setup_s is the median.
constexpr std::size_t kMinSetups = 9;
constexpr double kSetupShare = 0.1;

int run_end_to_end(const Options& o) {
  obs::set_timing_enabled(false);
  std::vector<double> setups;
  double setup_spent = 0.0;
  const auto set_up = [&] {
    const double t0 = wall_seconds();
    std::unique_ptr<Workload> fresh = make_workload(o);
    setups.push_back(wall_seconds() - t0);
    setup_spent += setups.back();
    return fresh;
  };

  Checks checks;
  std::vector<double> verdict_ms;
  std::vector<double> pass_wall;
  std::vector<double> pass_cpu;
  std::vector<double> verdict_best_ms;  // each verdict's best over the passes
  const double start = wall_seconds();
  const std::unique_ptr<Workload> w = set_up();
  do {
    std::vector<double> verdicts;
    const Workload::PassTime t = w->pass(checks, verdicts);
    pass_wall.push_back(t.wall_s);
    pass_cpu.push_back(t.cpu_s);
    if (verdict_best_ms.empty()) verdict_best_ms = verdicts;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      verdict_best_ms[i] = std::min(verdict_best_ms[i], verdicts[i]);
    }
    verdict_ms.insert(verdict_ms.end(), verdicts.begin(), verdicts.end());
    while (setup_spent < kSetupShare * (wall_seconds() - start)) (void)set_up();
  } while (wall_seconds() - start < o.seconds);
  while (setups.size() < kMinSetups) (void)set_up();
  // Before verify(), whose nproc-thread runs and reference replays are not
  // part of the measured passes.
  const double peak_rss_mb = static_cast<double>(obs::peak_rss_kb()) / 1024.0;
  w->verify(checks, o.corrupt_reference);

  // Every pass does the same work, and the host's neighbours only ever add
  // time to it, in spells of seconds to minutes; the best pass, and each
  // verdict's best, are the estimates those spells move least.
  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const std::vector<Metric> metrics{
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"pass_best_s", best(pass_wall), "s"},
      {"pass_cpu_best_s", best(pass_cpu), "s"},
      {"verdict_best_ms", median(verdict_best_ms), "ms"},
  };
  std::printf("passes %zu, verdicts %zu, setup samples %zu\n",
              pass_wall.size(), verdict_ms.size(), setups.size());
  const auto print_samples = [](const char* what,
                                 const std::vector<double>& samples) {
    std::printf("%s:", what);
    for (const double t : samples) std::printf(" %.4f", t);
    std::printf("\n");
  };
  print_samples("setup s", setups);
  print_samples("pass wall s", pass_wall);
  print_metric({"pass_p50_s", median(pass_wall), "s"});
  print_metric({"verdict_p50_ms", median(verdict_ms), "ms"});
  for (const Metric& m : w->report()) print_metric(m);
  print_checks(checks);
  print_result(checks.failed() == 0, checks, metrics);
  return 0;
}

/// Name of the layer a span belongs to: the first dotted component, after
/// the benchmark's own "bench." prefix (bench.pass itself is "bench").
std::string layer_of(const std::string& span) {
  std::string_view name = span;
  if (name.starts_with("bench.") && name != "bench.pass") name.remove_prefix(6);
  return std::string(name.substr(0, name.find('.')));
}

/// Self time per layer: each span's duration minus its direct children's,
/// summed over the spans of the layer.
std::map<std::string, double> span_self_seconds(
    const std::vector<obs::SpanRecord>& records) {
  std::map<std::uint64_t, double> child_time;
  for (const obs::SpanRecord& r : records) {
    if (r.parent >= 0) {
      child_time[static_cast<std::uint64_t>(r.parent)] += r.duration_seconds;
    }
  }
  std::map<std::string, double> self;
  for (const obs::SpanRecord& r : records) {
    self[layer_of(r.name)] += r.duration_seconds - child_time[r.id];
  }
  return self;
}

/// Registry-derived per-layer values of the pass just traced.
LayerValues registry_layers() {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::map<std::string, double> counters;
  for (const auto& [name, value] : snap.counters) {
    counters[name] = static_cast<double>(value);
  }
  std::map<std::string, obs::HistogramSnapshot> hist(snap.histograms.begin(),
                                                     snap.histograms.end());
  LayerValues v;
  for (const char* name : kRegistryCounters) v[name] = counters[name];
  v["qos.translate_s"] = hist["qos.translate.seconds"].sum;
  v["sim.required_capacity_s"] = hist["sim.required_capacity.seconds"].sum;
  const double searches = counters["sim.required_capacity.searches"];
  v["sim.replays_per_verdict"] =
      searches > 0.0 ? counters["sim.evaluate.calls"] / searches : 0.0;
  const double hits = counters["sim.incremental.verdict_cache_hits"];
  const double verdicts = hits + counters["sim.incremental.delta_verdicts"] +
                          counters["sim.incremental.batch_fallbacks"];
  v["sim.incremental.cache_hit_ratio"] = verdicts > 0.0 ? hits / verdicts : 0.0;
  v["wlm.schedule_s"] = hist["wlm.schedule.seconds"].sum;
  v["faultsim.trial_p50_ms"] = 1000.0 * hist["faultsim.trial_seconds"].p50;
  v["faultsim.trial_p95_ms"] = 1000.0 * hist["faultsim.trial_seconds"].p95;
  v["faultsim.events"] = hist["faultsim.trial.events"].sum;
  return v;
}

/// The values that must repeat exactly across two traced passes: every
/// count-valued metric.
std::map<std::string, double> counts_of(const LayerValues& v) {
  std::map<std::string, double> out;
  for (const LayerMetric& m : kLayerMetrics) {
    if (std::strcmp(m.unit, "count") != 0) continue;
    const auto it = v.find(m.name);
    if (it != v.end()) out[m.name] = it->second;
  }
  return out;
}

int run_traced(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  Checks checks;
  std::vector<double> verdict_ms;

  obs::set_timing_enabled(false);
  const double untraced = w->pass(checks, verdict_ms).wall_s;

  obs::Tracer& tracer = obs::Tracer::global();
  const auto traced_pass = [&](double& wall) {
    obs::Registry::global().reset();
    tracer.clear();
    obs::set_timing_enabled(true);
    tracer.set_enabled(true);
    wall = w->pass(checks, verdict_ms).wall_s;
    tracer.set_enabled(false);
    LayerValues v = registry_layers();
    for (const auto& [name, value] : w->layers()) v[name] = value;
    return v;
  };
  double traced = 0.0;
  LayerValues values = traced_pass(traced);
  const std::vector<obs::SpanRecord> spans = tracer.records();
  double traced_again = 0.0;
  const LayerValues again = traced_pass(traced_again);
  checks.op(counts_of(values) == counts_of(again),
            "per-layer counts differ between two traced passes");
  checks.op(values["sim.incremental.batch_fallbacks"] == 0.0,
            "the delta engine fell back to batch evaluation");

  tracer.clear();
  tracer.set_enabled(true);
  w->probe_layers(values);
  tracer.set_enabled(false);
  w->verify(checks, o.corrupt_reference);

  for (const auto& [layer, seconds] : span_self_seconds(spans)) {
    values[layer + ".span_self_s"] = seconds;
  }
  values["obs.trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0);

  std::vector<obs::SpanRecord> all = spans;
  const std::vector<obs::SpanRecord> probe_spans = tracer.records();
  all.insert(all.end(), probe_spans.begin(), probe_spans.end());
  const std::filesystem::path trace_path =
      std::filesystem::path(o.work_dir) / ("trace-" + o.workload + ".json");
  std::filesystem::create_directories(trace_path.parent_path());
  io::write_file_atomic(trace_path, obs::trace_to_json(all));

  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics) {
    metrics.push_back({m.name, values[m.name], m.unit});
  }
  std::printf("traced pass %.4f s, untraced pass %.4f s, spans %zu -> %s\n",
              traced, untraced, spans.size(), trace_path.c_str());
  for (const Metric& m : metrics) print_metric(m);
  print_checks(checks);
  print_result(checks.failed() == 0, checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse_args(argc, argv);
  const std::size_t nproc = ropus::parallel::hardware_threads();
  const double cores = effective_cores(nproc);
  // Passes run at one thread: wall time on a host that time-shares its
  // vCPUs swings with the neighbours at nproc threads, and counts race.
  // The nproc-thread runs happen in verify(), checked for equal output.
  ropus::parallel::set_thread_count(1);
  std::printf("workload %s, seed %llu, nproc %zu, effective cores %.2f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              nproc, cores);
  if (cores < 2.0 && o.workload == "faultsim-campaign") {
    std::printf("note: fewer than 2 effective cores; the *_nproc wall "
                "numbers measure time-sharing, not parallel speed-up\n");
  }
  try {
    return o.trace ? run_traced(o) : run_end_to_end(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
