// In-process sampling CPU profiler with span-attributed time.
//
// Each registered thread owns a POSIX interval timer on its per-thread CPU
// clock (timer_create + SIGEV_THREAD_ID), so SIGPROF lands on exactly the
// thread that burned the CPU and idle threads cost nothing. The handler is
// async-signal-safe by construction: it walks the frame-pointer chain out
// of the interrupted context (the build keeps frame pointers for this, see
// the top-level CMakeLists.txt), snapshots the thread's open-span stack
// (obs::spanprof), and pushes the raw sample into a lock-free per-thread
// SPSC ring — overflow drops the sample and counts it, it never blocks.
//
// Everything expensive happens off the hot path: a collector thread drains
// the rings every few tens of milliseconds and aggregates identical stacks,
// and stop() symbolizes addresses (dladdr + demangle, raw-address fallback)
// once per distinct frame. The result is a Profile: folded stacks in the
// collapsed flamegraph format, plus self/total CPU per span — "which spans
// the samples landed under", joining the profiler to the tracing plane
// without requiring --trace-out.
//
// One capture at a time, process-wide: `ropus_cli --profile-out` wraps the
// whole command in a capture, and the serve daemon's /debug/profile
// endpoint refuses (typed 409) while another capture holds the profiler.
// Threads register via prof::register_current_thread(), which ropus_cli
// installs as the parallel-pool start hook and calls for the main thread,
// so every sharded loop and the serve poll loop are covered.
//
// Linux-only; elsewhere supported() is false and start() fails cleanly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ropus::obs::prof {

/// Collapsed ("folded") stacks: key is the root-first frame path joined
/// with ';', value is the number of samples observed in that exact stack.
/// std::map keeps the serialization deterministic.
using FoldedStacks = std::map<std::string, std::uint64_t>;

/// CPU attribution for one span name. `self` counts samples whose
/// *innermost* open span was this one; `total` counts samples with this
/// span open anywhere on the stack (a span is counted once per sample even
/// when it recurses). Multiply by the sampling period for CPU seconds.
struct SpanCpu {
  std::string name;
  std::uint64_t self_samples = 0;
  std::uint64_t total_samples = 0;
};

/// One finished capture, fully symbolized.
struct Profile {
  FoldedStacks stacks;
  /// Sorted by self_samples descending, ties by name.
  std::vector<SpanCpu> spans;
  std::uint64_t samples = 0;       ///< aggregated into `stacks`
  std::uint64_t unattributed = 0;  ///< samples with no span open
  std::uint64_t dropped = 0;       ///< lost to ring overflow
  std::uint64_t truncated = 0;     ///< stacks cut at the frame limit
  std::uint64_t threads = 0;       ///< threads registered during capture
  int hz = 0;
  double duration_seconds = 0.0;
};

/// Cheap point-in-time view for `ropus_cli stats` / /stats.json / top.
struct ProfilerState {
  bool active = false;
  int hz = 0;
  double seconds = 0.0;  ///< elapsed capture time, 0 when idle
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  std::uint64_t threads = 0;   ///< threads registered for sampling
  std::uint64_t captures = 0;  ///< captures completed since process start
};

class Profiler {
 public:
  /// The process-wide profiler. Never destroyed.
  static Profiler& global();

  /// True when the platform has per-thread CPU timers (Linux). Elsewhere
  /// start() always fails and register_current_thread() is a no-op.
  static bool supported();

  /// The default rate: 99 (not 100) so the sampling grid does not
  /// phase-lock with 10ms-periodic work.
  static constexpr int kDefaultHz = 99;

  /// Begins a capture at `hz` samples per second of *CPU time* per thread
  /// (1 to 1000, else InvalidArgument): resets per-thread rings, installs
  /// the SIGPROF action (via common/signals, the single owner of all
  /// dispositions), enables span tracking, arms every registered thread's
  /// timer and launches the collector. A sample keeps 48 frames (deeper
  /// stacks are truncated at the root end and counted), and each thread
  /// buffers 512 samples between collector drains (~5s at 99 Hz). Returns
  /// false — without side effects — when a capture is already active or
  /// the platform is unsupported.
  bool start(int hz = kDefaultHz);

  /// Ends the capture: disarms timers, drains the rings one final time,
  /// symbolizes and aggregates. Throws InvalidArgument when no capture is
  /// active.
  Profile stop();

  ProfilerState state() const;

 private:
  Profiler() = default;
};

/// The global profiler's state as one JSON object — the `profiler` block of
/// the serve `stats` verb and of /stats.json: {"supported":..,"active":..,
/// "hz":..,"seconds":..,"samples":..,"dropped":..,"threads":..,
/// "captures":..}.
std::string state_json();

/// Registers the calling thread for sampling (idempotent, cheap after the
/// first call). ropus_cli installs this as parallel::set_thread_start_hook
/// and calls it on the main thread at startup; a thread that never
/// registers is simply invisible to the profiler.
void register_current_thread();

// --- Folded-profile toolkit --------------------------------------------
//
// Pure functions over FoldedStacks, shared by `ropus_cli profile`, the
// /debug/profile endpoint and the tests. None of them need a live capture.

/// Serializes stacks in the collapsed format: "frame;frame;frame count\n"
/// per line, root-first, sorted by stack (deterministic).
std::string to_folded(const FoldedStacks& stacks);

/// Parses collapsed text (the inverse of to_folded; blank lines and '#'
/// comments are skipped, duplicate stacks sum). Throws IoError on a line
/// without a trailing count.
FoldedStacks parse_folded(std::string_view text);

/// Adds every stack of `from` into `into` (profile aggregation).
void merge_folded(FoldedStacks& into, const FoldedStacks& from);

/// Per-frame rollup of a folded profile. `self` counts samples where the
/// frame is the leaf; `total` counts samples with the frame anywhere on
/// the stack, once per sample even when the frame recurses.
struct FrameStat {
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};
std::map<std::string, FrameStat> frame_stats(const FoldedStacks& stacks);

/// Renders a self-contained SVG flamegraph (no external scripts or fonts;
/// hover titles carry exact counts). Deterministic for a given input.
std::string flamegraph_svg(const FoldedStacks& stacks, std::string_view title);

/// Serializes a full Profile — stacks, span attribution and capture
/// metadata — as a JSON document (schema "ropus.profile.v1").
std::string profile_to_json(const Profile& profile);

}  // namespace ropus::obs::prof
