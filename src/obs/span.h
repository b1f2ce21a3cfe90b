// Scoped span tracing with parent-child nesting.
//
// A span is a named wall-clock interval. ScopedSpan opens one on
// construction and closes it on destruction; spans opened while another is
// active on the same thread become its children, so the collected records
// reconstruct the call tree (faultsim.campaign -> faultsim.trial ->
// wlm.run_event_schedule -> ...).
//
// Collection is off by default: an inactive ScopedSpan costs one relaxed
// atomic load and no clock reads, so instrumentation can stay compiled into
// release binaries. When enabled (e.g. by ropus_cli --trace-out), finished
// spans are appended to a bounded global buffer; overflow increments a
// dropped counter instead of growing without limit.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ropus::obs {

/// A closed span. `parent` is the id of the enclosing span on the same
/// thread, or -1 for a root. Times come from the monotonic clock. `tag`
/// is an optional request-scoped annotation (the serve plane puts the
/// client-generated request id here, so a client trace and the daemon
/// trace join on it); empty tags are omitted from exports.
struct SpanRecord {
  std::string name;
  std::string tag;
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint32_t depth = 0;
  std::uint64_t thread = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

class Tracer {
 public:
  static Tracer& global();

  bool enabled() const;
  void set_enabled(bool enabled);

  std::vector<SpanRecord> records() const;

  /// Discards all collected records.
  void clear();

  // Implementation interface for ScopedSpan.
  void append(SpanRecord record);

 private:
  mutable std::mutex mutex_;
  /// Records retained; later spans are discarded.
  static constexpr std::size_t kCapacity = 1 << 18;
  std::vector<SpanRecord> records_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};

  friend class ScopedSpan;
};

/// RAII span handle. The name must outlive the span — in practice every
/// call site passes a string literal, and the sampling profiler (which
/// snapshots name pointers from a signal handler and resolves them after
/// the span closed) depends on exactly that; the tag, when given, is
/// copied (request ids are short-lived strings).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ScopedSpan(std::string_view name, std::string_view tag);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  std::string_view name_;
  std::string tag_;
  std::uint64_t id_ = 0;
  std::int64_t saved_parent_ = -1;
  std::uint32_t depth_ = 0;
  double start_ = 0.0;
  bool active_ = false;   // recording into the tracer
  bool tracked_ = false;  // pushed onto the thread's active-span stack
};

// --- Profiler interface -----------------------------------------------
//
// The sampling profiler attributes CPU samples to the span that was open
// on the interrupted thread. Spans normally cost nothing while the tracer
// is disabled; enabling *tracking* makes every ScopedSpan maintain a
// small per-thread stack of (name pointer, length) entries — no clock
// reads, no record allocation — which the SIGPROF handler snapshots.
namespace spanprof {

/// One open span on the calling thread. The pointer references the
/// ScopedSpan's name (a string literal at every call site), so it stays
/// valid after the span closes.
struct ActiveSpan {
  const char* name = nullptr;
  std::uint32_t size = 0;
};

/// Spans deeper than this are tracked for nesting but not snapshotted.
inline constexpr std::size_t kTrackedDepth = 32;

/// Turns per-thread active-span bookkeeping on/off independently of the
/// tracer; the profiler enables it for the duration of a capture.
void set_tracking_enabled(bool enabled);

/// Copies the calling thread's open spans into `out` (outermost first,
/// at most `max`) and returns the count. Async-signal-safe: plain
/// thread-local reads paired with signal fences, no locks, no
/// allocation.
std::size_t snapshot_active_spans(ActiveSpan* out, std::size_t max) noexcept;

}  // namespace spanprof

/// Serializes span records as a Chrome trace-event JSON document (load it
/// in chrome://tracing or Perfetto). Records are emitted in start order.
std::string trace_to_json(std::span<const SpanRecord> records);

/// Writes the global tracer's records to `path` atomically.
void write_trace_json(const std::filesystem::path& path);

}  // namespace ropus::obs
