// Micro benchmarks: throughput of the hot paths — QoS translation, the
// trace-replay evaluation, the required-capacity search, and a genetic-
// search generation — at case-study scale.
//
// Methodology (the former single-timed-pass version produced noisy,
// unrepeatable numbers): each benchmark warms up until the code paths and
// caches are hot, then runs R independent repetitions of a batch sized to
// take a measurable interval, and reports the per-iteration MIN (best-case
// steady state, least scheduler noise) and MEDIAN (typical) times. Results
// are printed as a table and written to BENCH_micro_perf.json.
//
// Knobs: ROPUS_MICRO_REPS (repetitions, default 7), ROPUS_BENCH_FAST=1
// (smaller batches for CI smoke runs), ROPUS_BENCH_OUT_DIR (where the JSON
// lands).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "faultsim/campaign.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "serve/daemon.h"
#include "placement/genetic.h"
#include "placement/problem.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "serve/admission.h"
#include "serve/arbiter.h"
#include "serve/checkpoint.h"
#include "sim/incremental.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "support.h"
#include "wlm/failure_drill.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>

#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/transport.h"
#endif

namespace {

using namespace ropus;

/// Defeats dead-code elimination without a memory fence on the value.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

std::size_t reps_from_env() {
  if (const char* env = std::getenv("ROPUS_MICRO_REPS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value >= 3 && value <= 1000) return static_cast<std::size_t>(value);
  }
  return 7;
}

bool fast_mode() {
  const char* fast = std::getenv("ROPUS_BENCH_FAST");
  return fast != nullptr && fast[0] == '1';
}

struct BenchRun {
  std::string name;
  double min_seconds = 0.0;     // per iteration, best repetition
  double median_seconds = 0.0;  // per iteration, median repetition
  std::uint64_t iterations = 0; // total timed iterations
  std::uint64_t items = 0;      // work items per iteration (0 = none)
};

/// The untimed step of a phase that has none.
struct NoReset {
  void operator()() const {}
};

/// Runs `fn` until it has consumed ~`budget` seconds of warmup, then times
/// `reps` repetitions of a batch sized so one repetition takes at least
/// `batch_seconds`. A phase whose state drifts passes `reset`, an untimed
/// step run before every iteration (warmup included): the clock then stops
/// around it, so only `fn` is timed.
///
/// Two floors keep noisy hosts from writing outliers into the baseline
/// JSON: every repetition runs at least kMinBatch iterations (a single
/// scheduler blip cannot define a whole repetition), and when the spread
/// between the fastest and the median repetition exceeds kSpreadLimit the
/// phase runs extra rounds of repetitions (bounded at kMaxRounds) and
/// reports over the pooled samples — a transiently-perturbed run converges
/// toward the steady state instead of recording the perturbation.
template <typename Fn, typename Reset = NoReset>
BenchRun run_bench(const std::string& name, std::uint64_t items_per_iter,
                   Fn&& fn, Reset&& reset = {}) {
  constexpr bool kHasReset = !std::is_same_v<std::decay_t<Reset>, NoReset>;
  const std::size_t reps = reps_from_env();
  const double warmup_budget = fast_mode() ? 0.01 : 0.05;
  const double batch_seconds = fast_mode() ? 0.02 : 0.1;
  constexpr std::size_t kMinBatch = 3;
  constexpr double kSpreadLimit = 0.25;  // median may exceed min by 25%
  constexpr std::size_t kMaxRounds = 3;

  // Warmup, and a first estimate of the per-iteration cost.
  std::size_t warm_iters = 0;
  const double warm_start = obs::monotonic_seconds();
  double elapsed = 0.0;
  do {
    reset();
    fn();
    warm_iters += 1;
    elapsed = obs::monotonic_seconds() - warm_start;
  } while (elapsed < warmup_budget);
  const double est = elapsed / static_cast<double>(warm_iters);

  const auto batch = std::max<std::size_t>(
      kMinBatch, static_cast<std::size_t>(
                     std::max(1.0, batch_seconds / std::max(est, 1e-9))));

  std::vector<double> per_iter;
  per_iter.reserve(reps * kMaxRounds);
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    for (std::size_t r = 0; r < reps; ++r) {
      double timed = 0.0;
      if constexpr (kHasReset) {
        for (std::size_t i = 0; i < batch; ++i) {
          reset();
          const double start = obs::monotonic_seconds();
          fn();
          timed += obs::monotonic_seconds() - start;
        }
      } else {
        const double start = obs::monotonic_seconds();
        for (std::size_t i = 0; i < batch; ++i) fn();
        timed = obs::monotonic_seconds() - start;
      }
      per_iter.push_back(timed / static_cast<double>(batch));
    }
    std::sort(per_iter.begin(), per_iter.end());
    const double median = per_iter[per_iter.size() / 2];
    if (median <= per_iter.front() * (1.0 + kSpreadLimit)) break;
  }

  BenchRun run;
  run.name = name;
  run.min_seconds = per_iter.front();
  run.median_seconds = per_iter[per_iter.size() / 2];
  run.iterations = static_cast<std::uint64_t>(batch) * per_iter.size();
  run.items = items_per_iter;
  return run;
}

const std::vector<trace::DemandTrace>& demands() {
  static const auto traces = bench::case_study(1);
  return traces;
}

const qos::CosCommitment& cos2() {
  static const qos::CosCommitment c{0.95, 60.0};
  return c;
}

const std::vector<qos::AllocationTrace>& allocations() {
  static const auto allocs = qos::build_allocations(
      demands(), bench::paper_requirement(97.0, 30.0), cos2());
  return allocs;
}

void report(const BenchRun& run, bench::BenchReporter& reporter) {
  const double ops = run.median_seconds > 0.0
                         ? static_cast<double>(std::max<std::uint64_t>(
                               run.items, 1)) / run.median_seconds
                         : 0.0;
  std::printf("%-28s %12.3f us/iter (min) %12.3f us/iter (median)",
              run.name.c_str(), run.min_seconds * 1e6,
              run.median_seconds * 1e6);
  if (run.items > 0) std::printf(" %14.0f items/s", ops);
  std::printf("\n");

  bench::BenchPhase phase;
  phase.name = run.name;
  phase.seconds = run.median_seconds;
  phase.ops_per_sec = ops;
  phase.iterations = run.iterations;
  reporter.add_phase(std::move(phase));
  reporter.set_metric(run.name + ".min_us", run.min_seconds * 1e6);
  reporter.set_metric(run.name + ".median_us", run.median_seconds * 1e6);
}

/// The SLO kernel's two shapes over one series: the batch span function and
/// the streaming accumulator it is built on. The two must stay within noise
/// of each other — the batch path is a loop over observe(), so a gap here
/// means the wrapper grew overhead.
[[gnu::noinline]] void bench_slo_kernel(bench::BenchReporter& reporter) {
  const trace::DemandTrace& t = demands()[0];
  const slo::Band band{0.66, 0.9, 97.0, 30.0};
  // Grants chosen so utilization sweeps 0.5..0.95 — every band class and
  // the degraded-run bookkeeping stay on the hot path.
  std::vector<double> granted(t.size());
  for (std::size_t i = 0; i < granted.size(); ++i) {
    const double u = 0.5 + 0.05 * static_cast<double>(i % 10);
    granted[i] = t[i] / u;
  }
  const double mins = static_cast<double>(t.calendar().minutes_per_sample());

  report(run_bench("slo_bands/batch", t.size(),
                   [&] {
                     do_not_optimize(slo::accumulate_bands(
                         t.values(), granted, band, mins));
                   }),
         reporter);
  report(run_bench("slo_bands/streaming", t.size(),
                   [&] {
                     slo::BandAccumulator acc(mins);
                     for (std::size_t i = 0; i < granted.size(); ++i) {
                       acc.observe(t[i], granted[i], band);
                     }
                     do_not_optimize(acc.counts());
                   }),
         reporter);
}

/// A small fault-injection campaign at one worker vs all of them — the
/// speedup gate for the sharded trial loop. On a single-CPU runner the two
/// match; `campaign_speedup_x` records whatever the host delivered.
[[gnu::noinline]] void bench_campaign_threads(bench::BenchReporter& reporter) {
  const std::size_t n = 8;
  std::vector<trace::DemandTrace> fleet(demands().begin(),
                                        demands().begin() + n);
  std::vector<qos::ApplicationQos> app_qos;
  for (const trace::DemandTrace& t : fleet) {
    qos::ApplicationQos q;
    q.app_name = t.name();
    q.normal = bench::paper_requirement(97.0, 30.0);
    q.failure = bench::paper_requirement(90.0, 60.0);
    app_qos.push_back(std::move(q));
  }
  qos::PoolCommitments commitments;
  commitments.cos2 = cos2();
  const auto pool = sim::homogeneous_pool(4, 16);
  const placement::Assignment assignment =
      faultsim::Campaign::plan_normal_assignment(fleet, app_qos, commitments,
                                                 pool);
  const faultsim::Campaign campaign(fleet, app_qos, commitments, pool,
                                    assignment);
  faultsim::CampaignConfig cfg;
  cfg.trials = 8;
  cfg.seed = bench::kSeed;
  cfg.reliability.mtbf_hours = 120.0;
  cfg.reliability.mttr_hours = 6.0;
  cfg.replay.spare_servers = 1;

  parallel::set_thread_count(1);
  const BenchRun serial = run_bench("campaign/threads=1", cfg.trials,
                                    [&] { do_not_optimize(campaign.run(cfg)); });
  report(serial, reporter);

  parallel::set_thread_count(0);  // back to the hardware default
  // Fixed label (not the thread count) so the JSON metric names are stable
  // across hosts and bench_diff can compare them.
  const BenchRun sharded =
      run_bench("campaign/threads=max", cfg.trials,
                [&] { do_not_optimize(campaign.run(cfg)); });
  report(sharded, reporter);
  reporter.set_metric("campaign_hardware_threads",
                      static_cast<double>(parallel::hardware_threads()));
  reporter.set_metric("campaign_speedup_x",
                      sharded.min_seconds > 0.0
                          ? serial.min_seconds / sharded.min_seconds
                          : 0.0);
}

/// One fault-injection trial in the end-to-end benchmark's shape: the 26
/// apps over four weeks, first-fit-decreasing onto 13 x 16-way servers,
/// 0.5 surges per week and 2% telemetry drops; every iteration replays the
/// same sampled timeline (the event schedule, which pulls the telemetry and
/// judges each slot it grants, then the trial's accounting).
[[gnu::noinline]] void bench_faultsim_trial(bench::BenchReporter& reporter) {
  const std::vector<trace::DemandTrace> fleet = bench::case_study(4);
  std::vector<qos::ApplicationQos> app_qos;
  for (const trace::DemandTrace& t : fleet) {
    qos::ApplicationQos q;
    q.app_name = t.name();
    q.normal = bench::paper_requirement(100.0, std::nullopt);
    q.failure = bench::paper_requirement(97.0, 30.0);
    app_qos.push_back(std::move(q));
  }
  const qos::PoolCommitments commitments;
  const auto pool = sim::homogeneous_pool(13, 16);
  const faultsim::Campaign campaign(
      fleet, app_qos, commitments, pool,
      faultsim::Campaign::plan_normal_assignment(fleet, app_qos, commitments,
                                                 pool));
  faultsim::CampaignConfig cfg;
  cfg.surge.arrivals_per_week = 0.5;
  cfg.replay.telemetry.drop_rate = 0.02;
  report(run_bench("faultsim/trial", fleet.front().size() * fleet.size(),
                   [&] {
                     do_not_optimize(campaign.run_trial(bench::kSeed, cfg));
                   }),
         reporter);
}

/// Event-schedule replay, bare vs with the flight recorder at stride 1 —
/// the overhead gate for the recorder's hot-path design (the recording is
/// ring-bounded and never finish()ed, so no I/O is timed). Kept out of
/// main() (and never inlined) so its code and locals cannot perturb the
/// layout of the other phases' timing loops.
[[gnu::noinline]] void bench_recorder_overhead(bench::BenchReporter& reporter) {
  const std::size_t n = 8;
  const std::span<const trace::DemandTrace> fleet(demands().data(), n);
  const qos::Requirement req2 = bench::paper_requirement(97.0, 30.0);
  std::vector<qos::Translation> normal;
  for (std::size_t a = 0; a < n; ++a) {
    normal.push_back(qos::translate(demands()[a], req2, cos2()));
  }
  const auto pool = sim::homogeneous_pool(4, 16);
  wlm::SchedulePhase phase;
  phase.start_slot = 0;
  phase.failure_mode.assign(n, false);
  phase.down.assign(pool.size(), false);
  for (std::size_t a = 0; a < n; ++a) phase.hosts.push_back(a % pool.size());
  const std::vector<wlm::SchedulePhase> phases{phase};
  const auto run_schedule = [&] {
    do_not_optimize(wlm::run_event_schedule(fleet, normal, normal, pool,
                                            phases, {}, wlm::Policy::kReactive));
  };
  const BenchRun bare =
      run_bench("wlm_schedule", fleet.front().size() * n, run_schedule);
  report(bare, reporter);

  obs::RecorderConfig rec_cfg;
  rec_cfg.path = "bench-recorder-scratch.bin";  // never written (no finish)
  rec_cfg.stride = 1;
  rec_cfg.ring_records = 1u << 16;
  obs::Recorder recorder(rec_cfg);
  obs::Recorder::set_active(&recorder);
  const BenchRun recorded = run_bench(
      "wlm_schedule/recorded", fleet.front().size() * n, run_schedule);
  obs::Recorder::set_active(nullptr);
  report(recorded, reporter);
  reporter.set_metric("recorder_overhead_pct",
                      bare.min_seconds > 0.0
                          ? (recorded.min_seconds / bare.min_seconds - 1.0) *
                                100.0
                          : 0.0);
}

/// The sampling profiler's tax on a CPU-bound phase: the same event-
/// schedule replay as the recorder gate, bare vs under an active 99 Hz
/// capture (SIGPROF delivery, handler unwind, ring append). The capture is
/// stopped — and its samples discarded — without any I/O in the timed
/// region, so the number is pure sampling overhead. Skipped (metric absent)
/// where per-thread CPU timers are unavailable.
[[gnu::noinline]] void bench_profiler_overhead(bench::BenchReporter& reporter) {
  if (!obs::prof::Profiler::supported()) return;
  const std::size_t n = 8;
  const std::span<const trace::DemandTrace> fleet(demands().data(), n);
  const qos::Requirement req2 = bench::paper_requirement(97.0, 30.0);
  std::vector<qos::Translation> normal;
  for (std::size_t a = 0; a < n; ++a) {
    normal.push_back(qos::translate(demands()[a], req2, cos2()));
  }
  const auto pool = sim::homogeneous_pool(4, 16);
  wlm::SchedulePhase phase;
  phase.start_slot = 0;
  phase.failure_mode.assign(n, false);
  phase.down.assign(pool.size(), false);
  for (std::size_t a = 0; a < n; ++a) phase.hosts.push_back(a % pool.size());
  const std::vector<wlm::SchedulePhase> phases{phase};
  const auto run_schedule = [&] {
    do_not_optimize(wlm::run_event_schedule(fleet, normal, normal, pool,
                                            phases, {}, wlm::Policy::kReactive));
  };
  const std::uint64_t items = fleet.front().size() * n;
  const BenchRun bare = run_bench("obs/profiler_off", items, run_schedule);
  report(bare, reporter);

  parallel::set_thread_start_hook(&obs::prof::register_current_thread);
  obs::prof::register_current_thread();
  if (!obs::prof::Profiler::global().start()) return;
  const BenchRun sampled =
      run_bench("obs/profiler_overhead", items, run_schedule);
  const obs::prof::Profile profile = obs::prof::Profiler::global().stop();
  report(sampled, reporter);
  reporter.set_metric("profiler_overhead_pct",
                      bare.min_seconds > 0.0
                          ? (sampled.min_seconds / bare.min_seconds - 1.0) *
                                100.0
                          : 0.0);
  reporter.set_metric("profiler_capture_samples",
                      static_cast<double>(profile.samples));
}

/// The serve daemon's steady-state tick: parse one NDJSON line and judge
/// the slot for 8 apps (grant rule, watchdog, verdict rendering), plus the
/// cost of serializing a full checkpoint payload. The arbiter's per-group
/// theta bookkeeping grows with elapsed weeks, so an untimed reset step
/// re-seeds a fresh arbiter (8 admissions) each simulated week to keep the
/// phase stationary without timing admissions as ticks.
[[gnu::noinline]] void bench_serve_tick(bench::BenchReporter& reporter) {
  const std::size_t n = 8;
  const trace::Calendar cal = demands()[0].calendar();
  serve::ServeConfig config;
  config.minutes_per_sample = static_cast<double>(cal.minutes_per_sample());
  config.slots_per_day =
      trace::Calendar::kMinutesPerDay / cal.minutes_per_sample();
  config.servers = 4;
  config.server_cpus = 64.0;  // roomy: every admission must be accepted

  const auto seed_arbiter = [&] {
    serve::Arbiter arbiter(config);
    for (std::size_t a = 0; a < n; ++a) {
      serve::Message msg;
      msg.type = serve::MessageType::kAdmit;
      msg.admit.app = demands()[a].name();
      msg.admit.requirement = bench::paper_requirement(97.0, 30.0);
      msg.admit.profile.assign(demands()[a].values().begin(),
                               demands()[a].values().end());
      arbiter.handle(msg);
    }
    return arbiter;
  };
  serve::Arbiter arbiter = seed_arbiter();
  if (arbiter.app_count() != n) {
    std::fprintf(stderr, "serve bench: admission rejected a seed app\n");
    std::exit(1);
  }
  const std::size_t week_slots = 7 * config.slots_per_day;

  std::string suffix = ",\"demand\":{";
  for (std::size_t a = 0; a < n; ++a) {
    if (a > 0) suffix += ',';
    suffix += '"' + std::string(demands()[a].name()) + "\":" +
              std::to_string(1.0 + 0.3 * static_cast<double>(a));
  }
  suffix += "}}";

  report(run_bench(
             "serve/tick", n,
             [&] {
               const std::string line = "{\"type\":\"tick\",\"slot\":" +
                                        std::to_string(arbiter.next_slot()) +
                                        suffix;
               do_not_optimize(arbiter.handle(serve::parse_message(line)));
             },
             [&] {
               if (arbiter.next_slot() >= week_slots) arbiter = seed_arbiter();
             }),
         reporter);

  // A v3 payload names each profile in the store beside it.
  std::vector<std::string> names;
  for (const serve::Arbiter::Profile& profile : arbiter.profiles()) {
    char name[24];
    std::snprintf(name, sizeof name, "%08x.0", profile.digest);
    names.emplace_back(name);
  }
  report(run_bench("serve/checkpoint_save", 0,
                   [&] {
                     json::Writer w;
                     arbiter.save_state(w, names);
                     do_not_optimize(std::move(w).str());
                   }),
         reporter);
}

/// CRC-32 over 1 MiB of seeded bytes (items are bytes): the per-byte cost
/// every checkpoint payload and journal frame pays for its framing.
[[gnu::noinline]] void bench_crc32(bench::BenchReporter& reporter) {
  Rng rng(2006);
  std::string bytes(std::size_t{1} << 20, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.uniform_index(256));
  report(run_bench("crc32", bytes.size(),
                   [&] { do_not_optimize(crc::crc32(bytes)); }),
         reporter);
}

/// The durable side of the serve daemon: one full compaction cycle as
/// DaemonCore runs it, over the 26 case-study apps admitted with their
/// one-week profiles — append a checkpoint interval's worth of journal
/// frames, name the profiles in the store kept across cycles (the first,
/// warm-up cycle writes them; later ones find them all), snapshot the
/// arbiter (atomic write, fsync of file and parent directory), truncate
/// the journal to its new base and let the store collect. Dominated by
/// the fsyncs, so this tracks the per-interval I/O tax the daemon pays for
/// a bounded journal.
[[gnu::noinline]] void bench_serve_compact(bench::BenchReporter& reporter) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ropus_micro_" + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(dir);

  serve::ServeConfig config;
  const trace::Calendar cal = demands()[0].calendar();
  config.minutes_per_sample = static_cast<double>(cal.minutes_per_sample());
  config.slots_per_day =
      trace::Calendar::kMinutesPerDay / cal.minutes_per_sample();
  config.servers = 13;
  config.server_cpus = 64.0;  // roomy: every admission must be accepted
  serve::Arbiter arbiter(config);
  for (const trace::DemandTrace& demand : demands()) {
    serve::Message msg;
    msg.type = serve::MessageType::kAdmit;
    msg.admit.app = demand.name();
    msg.admit.requirement = bench::paper_requirement(97.0, 30.0);
    msg.admit.profile.assign(demand.values().begin(), demand.values().end());
    arbiter.handle(msg);
  }
  if (arbiter.app_count() != demands().size()) {
    std::fprintf(stderr, "serve/compact: admission rejected a case-study app\n");
    std::exit(1);
  }

  const fs::path checkpoint = dir / "bench.ckpt";
  serve::Journal journal(dir / "bench.journal", 0, 0, 0);
  serve::ProfileStore store(serve::ProfileStore::path_for(checkpoint));
  const std::string line =
      R"({"type":"tick","slot":0,"demand":{"app-00":1.5,"app-01":2.25}})";
  constexpr std::size_t kInterval = 64;
  report(run_bench("serve/compact", 0,
                   [&] {
                     for (std::size_t i = 0; i < kInterval; ++i) {
                       journal.append(line);
                     }
                     const std::vector<std::string> names = store.put(arbiter);
                     serve::write_snapshot(checkpoint, arbiter,
                                           journal.entries(), names);
                     do_not_optimize(journal.compact());
                     do_not_optimize(store.collect(names));
                   }),
         reporter);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// The introspection plane's two hot paths. serve/stats is one full
/// stats_reply render against a warm daemon core — what every `stats`
/// verb and /stats poll of `ropus_cli top` costs the poll loop.
/// obs/timeseries_append is one registry snapshot plus one ring append of
/// it, the per-cadence price of keeping /stats.json live; the ring is at
/// capacity so the steady-state overwrite path is what gets timed.
[[gnu::noinline]] void bench_observability(bench::BenchReporter& reporter) {
  const std::size_t n = 8;
  serve::ServeConfig config;
  const trace::Calendar cal = demands()[0].calendar();
  config.minutes_per_sample = static_cast<double>(cal.minutes_per_sample());
  config.slots_per_day =
      trace::Calendar::kMinutesPerDay / cal.minutes_per_sample();
  config.servers = 4;
  config.server_cpus = 64.0;
  serve::DaemonCore core(config, serve::DaemonOptions{});
  for (std::size_t a = 0; a < n; ++a) {
    std::string line = R"({"type":"admit","app":")" +
                       std::string(demands()[a].name()) + R"(","profile":[)";
    const auto& values = demands()[a].values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(values[i]);
    }
    line += "]}";
    (void)core.process_line(line, false);
  }
  for (std::uint64_t slot = 0; slot < 4; ++slot) {
    (void)core.process_line("{\"type\":\"tick\",\"slot\":" +
                                std::to_string(slot) + ",\"demand\":{}}",
                            false);
  }
  report(run_bench("serve/stats", 0,
                   [&] { do_not_optimize(core.stats_reply()); }),
         reporter);

  obs::Registry registry;
  for (int i = 0; i < 24; ++i) {
    registry.counter("bench.counter." + std::to_string(i)).add(
        static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    registry.gauge("bench.gauge." + std::to_string(i)).set(1.5 * i);
  }
  for (int i = 0; i < 4; ++i) {
    obs::Histogram& h = registry.histogram("bench.hist." + std::to_string(i));
    for (int s = 0; s < 64; ++s) h.record(0.001 * (s + 1));
  }
  obs::TimeSeries series;
  double t = 0.0;
  // Fill to capacity first so every timed append overwrites the oldest
  // window instead of growing the ring.
  for (std::size_t i = 0; i <= obs::TimeSeries::Options{}.capacity; ++i) {
    series.sample(registry.snapshot(), t += 1.0);
  }
  report(run_bench("obs/timeseries_append", 0,
                   [&] {
                     registry.counter("bench.counter.0").add(3);
                     series.sample(registry.snapshot(), t += 1.0);
                     do_not_optimize(series.samples());
                   }),
         reporter);
}

#if defined(__unix__) || defined(__APPLE__)
/// One identified request over a Unix socket through the retrying client:
/// connect once, then per iteration send a tick and read verdict + end
/// marker back. No apps are admitted and no persistence is configured, so
/// the arbiter's share is trivial and the number is the transport's —
/// framing, poll wakeup, id bookkeeping, reply flush.
[[gnu::noinline]] void bench_socket_roundtrip(bench::BenchReporter& reporter) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ropus_micro_sock_" + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(dir);

  serve::ServeConfig config;
  const trace::Calendar cal = demands()[0].calendar();
  config.minutes_per_sample = static_cast<double>(cal.minutes_per_sample());
  config.slots_per_day =
      trace::Calendar::kMinutesPerDay / cal.minutes_per_sample();
  serve::DaemonOptions options;
  serve::TransportOptions transport;
  transport.unix_path = (dir / "bench.sock").string();

  serve::SocketServer server(config, options, transport);
  std::ostringstream err;
  std::thread server_thread([&] { server.run(err); });

  serve::ClientOptions copts;
  copts.unix_path = transport.unix_path;
  copts.id_prefix = "bench";
  serve::Client client(copts);
  std::uint64_t slot = 0;
  report(run_bench("serve/socket_roundtrip", 0,
                   [&] {
                     const std::string line =
                         "{\"type\":\"tick\",\"slot\":" +
                         std::to_string(slot++) + ",\"demand\":{}}";
                     do_not_optimize(client.transact(line));
                   }),
         reporter);

  client.transact(R"({"type":"shutdown"})");
  server_thread.join();
  std::error_code ec;
  fs::remove_all(dir, ec);
}
#endif

}  // namespace

int main() {
  bench::BenchReporter reporter("micro_perf");
  // Every phase but faultsim/trial (the 4-week perfbench shape) replays the
  // 1-week case study, whatever ROPUS_BENCH_WEEKS says.
  reporter.set_weeks(1);
  reporter.set_repetitions(reps_from_env());
  std::printf("micro_perf: reps=%zu fast=%d weeks=1\n", reps_from_env(),
              fast_mode() ? 1 : 0);

  const qos::Requirement req = bench::paper_requirement(97.0, 30.0);
  for (const std::size_t app : {std::size_t{0}, std::size_t{13},
                                std::size_t{25}}) {
    const trace::DemandTrace& t = demands()[app];
    report(run_bench("translate/" + std::to_string(app), t.size(),
                     [&] { do_not_optimize(qos::translate(t, req, cos2())); }),
           reporter);
  }

  for (const std::size_t n : {std::size_t{4}, std::size_t{13},
                              std::size_t{26}}) {
    std::vector<const qos::AllocationTrace*> ptrs;
    for (std::size_t i = 0; i < n; ++i) ptrs.push_back(&allocations()[i]);
    const auto cal = demands()[0].calendar();
    report(run_bench("aggregate/" + std::to_string(n), cal.size(), [&] {
             do_not_optimize(sim::aggregate_workloads(ptrs, cal));
           }),
           reporter);
  }

  {
    std::vector<const qos::AllocationTrace*> ptrs;
    for (std::size_t i = 0; i < 8; ++i) ptrs.push_back(&allocations()[i]);
    const sim::Aggregate agg =
        sim::aggregate_workloads(ptrs, demands()[0].calendar());
    report(run_bench("evaluate", agg.cos1.size(),
                     [&] { do_not_optimize(sim::evaluate(agg, 16.0, cos2())); }),
           reporter);
    // The 8 workloads need ~20 CPUs: under the 64-CPU limit the search
    // computes every floor (at 16 CPUs the precheck or theta floor would
    // end it early).
    report(run_bench("required_capacity", agg.cos1.size(), [&] {
             do_not_optimize(sim::required_capacity(agg, 64.0, cos2()));
           }),
           reporter);
  }

  {
    const auto pool = sim::homogeneous_pool(13, 16);
    const placement::PlacementProblem problem(allocations(), pool, cos2());
    placement::GeneticConfig cfg;
    cfg.population = 16;
    cfg.max_generations = 1;  // cost of a single generation
    cfg.stagnation_limit = 1;
    const placement::Assignment initial(problem.workload_count(), 0);
    std::uint64_t seed = 1;
    // At one worker, so the phase times the code rather than the cores the
    // host leaves free; campaign/threads=max measures the thread pool.
    parallel::set_thread_count(1);
    report(run_bench("genetic_generation", 0, [&] {
             cfg.seed = seed++;
             do_not_optimize(placement::genetic_search(problem, initial, cfg));
           }),
           reporter);
    parallel::set_thread_count(0);  // back to the hardware default
  }

  {
    // The delta-evaluation engine's two hot paths, at the same 8-workload /
    // 2016-slot scale as `evaluate` and `required_capacity` above so the
    // delta-vs-batch ratio reads straight off the table.
    const std::size_t n = 8;
    const trace::Calendar cal = demands()[0].calendar();
    sim::IncrementalEvaluator engine(cal, cos2(),
                                     std::vector<double>{64.0, 64.0, 64.0});
    for (std::size_t id = 0; id < n; ++id) {
      engine.register_workload(id, allocations()[id]);
      engine.add(id, id < 6 ? id % 2 : 2);
    }
    // The probe candidate stays unhosted for the whole phase.
    engine.register_workload(n, allocations()[n]);
    (void)engine.verdict(0);
    (void)engine.verdict(1);
    (void)engine.verdict(2);

    // One placement move: two O(slots) series passes (leave one server,
    // land on the other) plus two verdicts — the genetic search's inner
    // loop when the memo misses.
    std::size_t flip = 0;
    report(run_bench("placement/delta_move", cal.size(),
                     [&] {
                       const std::size_t id = flip % 6;
                       engine.move(id, engine.host_of(id) == 0 ? 1 : 0);
                       do_not_optimize(engine.verdict(0));
                       do_not_optimize(engine.verdict(1));
                       ++flip;
                     }),
           reporter);

    // One admission probe: the candidate's series added in one blocked pass
    // that also takes the CoS1 peak, the required-capacity search, and the
    // series subtracted again with no peak scan — what each per-server fit
    // check costs the serve daemon's delta admission path (vs the batch
    // `required_capacity` phase above).
    report(run_bench("sim/required_capacity_delta", cal.size(),
                     [&] { do_not_optimize(engine.probe(2, n)); }),
           reporter);
  }

  {
    // A verdict after a queue at least as long as the hosted set, which
    // rebuilds the sums in one blocked pass: the server swaps two of its
    // three workloads for two others, four queued ops against three
    // hosted. Most of the genetic search's memo misses take this path.
    const trace::Calendar cal = demands()[0].calendar();
    sim::IncrementalEvaluator engine(cal, cos2(), std::vector<double>{64.0});
    for (std::size_t id = 0; id < 5; ++id) {
      engine.register_workload(id, allocations()[id]);
    }
    for (std::size_t id = 0; id < 3; ++id) engine.add(id, 0);
    (void)engine.verdict(0);
    bool swapped = false;
    report(run_bench("sim/delta_rebuild", cal.size(),
                     [&] {
                       const std::size_t out = swapped ? 3 : 0;
                       const std::size_t in = swapped ? 0 : 3;
                       engine.remove(out);
                       engine.remove(out + 1);
                       engine.add(in, 0);
                       engine.add(in + 1, 0);
                       do_not_optimize(engine.verdict(0));
                       swapped = !swapped;
                     }),
           reporter);
  }

  {
    // The registrations of a placement context's engine build: the 26
    // case-study allocations on 13 16-CPU servers. Registration reads each
    // allocation's stored peaks, so a scan of every registered value would
    // show here. The engine's zeroed sums are built once, untimed: their
    // page faults follow the allocator's state (15 or 136 us per build in
    // two runs of one binary), which would drown the registrations.
    const std::size_t n = allocations().size();
    sim::IncrementalEvaluator engine(demands()[0].calendar(), cos2(),
                                     std::vector<double>(13, 16.0));
    report(run_bench(
               "sim/engine_build", n,
               [&] {
                 for (std::size_t id = 0; id < n; ++id) {
                   engine.register_workload(id, allocations()[id]);
                 }
                 do_not_optimize(engine.registered(n - 1));
               },
               [&] {
                 for (std::size_t id = 0; id < n; ++id) {
                   if (engine.registered(id)) engine.unregister_workload(id);
                 }
               }),
           reporter);
  }

  {
    // One admission in serve-churn's shape: a one-week candidate placed
    // among 40 16-CPU servers that host 103 one-week apps, the case study
    // four times over, each placed by the same admission (untimed). The
    // bounds leave most servers unprobed. The candidate's group sums are
    // summed on the first call and kept, as for the probes of one
    // admission in the daemon.
    const qos::CosCommitment commitment{0.95, 60.0};
    qos::Requirement admitted;  // an admit request's defaults
    admitted.m_percent = 97.0;
    const std::vector<qos::AllocationTrace> allocs =
        qos::build_allocations(demands(), admitted, commitment);
    sim::IncrementalEvaluator engine(demands()[0].calendar(), commitment,
                                     std::vector<double>(40, 16.0));
    const serve::AdmissionPolicy policy;
    const std::size_t candidate = 4 * allocs.size() - 1;
    const auto alloc_of = [&](std::size_t id) -> const qos::AllocationTrace& {
      return allocs[id % allocs.size()];
    };
    for (std::size_t id = 0; id <= candidate; ++id) {
      engine.register_workload(id, alloc_of(id));
      if (id == candidate) break;
      const serve::AdmissionOutcome placed = serve::place_candidate(
          engine, id, alloc_of(id).peak_allocation(), 1.0, policy);
      if (placed.decision != serve::AdmissionDecision::kAccepted) {
        std::fprintf(stderr, "serve/admit: the pool refused app %zu\n", id);
        std::exit(1);
      }
      engine.add(id, placed.host);
    }
    report(run_bench("serve/admit", demands()[0].size(),
                     [&] {
                       do_not_optimize(serve::place_candidate(
                           engine, candidate,
                           alloc_of(candidate).peak_allocation(), 1.0,
                           policy));
                     }),
           reporter);
  }

  bench_slo_kernel(reporter);
  bench_serve_tick(reporter);
  bench_crc32(reporter);
  bench_serve_compact(reporter);
  bench_observability(reporter);
#if defined(__unix__) || defined(__APPLE__)
  bench_socket_roundtrip(reporter);
#endif
  bench_campaign_threads(reporter);
  bench_faultsim_trial(reporter);
  bench_recorder_overhead(reporter);
  bench_profiler_overhead(reporter);

  const std::filesystem::path out = reporter.write();
  std::printf("wrote %s\n", out.string().c_str());
  return 0;
}
