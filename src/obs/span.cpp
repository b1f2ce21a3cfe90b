#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/file_io.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace ropus::obs {

namespace {

/// Per-thread innermost open span, the parent of the next one opened.
thread_local std::int64_t t_current_span = -1;
thread_local std::uint32_t t_depth = 0;

/// Active-span stack for the sampling profiler. Written only by the
/// owning thread; read by the same thread's SIGPROF handler, so the
/// push protocol is entry-then-depth with a signal fence between — the
/// handler always sees a valid prefix.
std::atomic<bool> g_span_tracking{false};
thread_local spanprof::ActiveSpan t_span_stack[spanprof::kTrackedDepth];
thread_local std::atomic<std::uint32_t> t_tracked_depth{0};

std::uint64_t thread_token() {
  // A small stable per-thread number (nicer in exports than hashed ids).
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t token = next.fetch_add(1);
  return token;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // never destroyed, like Registry
  return *instance;
}

bool Tracer::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void Tracer::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> copy = records_;
  std::sort(copy.begin(), copy.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_seconds != b.start_seconds) {
                return a.start_seconds < b.start_seconds;
              }
              return a.id < b.id;
            });
  return copy;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
}

void Tracer::append(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() < kCapacity) records_.push_back(std::move(record));
}

ScopedSpan::ScopedSpan(std::string_view name) : ScopedSpan(name, {}) {}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view tag)
    : name_(name) {
  Tracer& tracer = Tracer::global();
  const bool record = tracer.enabled();
  if (!record && !g_span_tracking.load(std::memory_order_relaxed)) return;
  tracked_ = true;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  saved_parent_ = t_current_span;
  depth_ = t_depth;
  t_current_span = static_cast<std::int64_t>(id_);
  t_depth += 1;
  // Entry first, then the depth, with a signal fence between: the SIGPROF
  // handler that reads this stack always observes a fully-written prefix.
  const std::uint32_t d = t_tracked_depth.load(std::memory_order_relaxed);
  if (d < spanprof::kTrackedDepth) {
    t_span_stack[d].name = name.data();
    t_span_stack[d].size = static_cast<std::uint32_t>(name.size());
    std::atomic_signal_fence(std::memory_order_release);
  }
  t_tracked_depth.store(d + 1, std::memory_order_relaxed);
  if (!record) return;
  tag_ = std::string(tag);
  active_ = true;
  start_ = monotonic_seconds();
}

ScopedSpan::~ScopedSpan() {
  if (!tracked_) return;
  const double end = active_ ? monotonic_seconds() : 0.0;
  const std::uint32_t d = t_tracked_depth.load(std::memory_order_relaxed);
  if (d > 0) t_tracked_depth.store(d - 1, std::memory_order_relaxed);
  t_current_span = saved_parent_;
  t_depth -= 1;
  if (!active_) return;
  SpanRecord record;
  record.name = std::string(name_);
  record.tag = std::move(tag_);
  record.id = id_;
  record.parent = saved_parent_;
  record.depth = depth_;
  record.thread = thread_token();
  record.start_seconds = start_;
  record.duration_seconds = end - start_;
  Tracer::global().append(std::move(record));
}

std::string trace_to_json(std::span<const SpanRecord> records) {
  // Chrome trace-event format: complete ("X") events with microsecond
  // timestamps. Extra fields (id/parent/depth) ride in args.
  json::Writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const SpanRecord& r : records) {
    w.begin_object();
    w.key("ph").value("X");
    w.key("name").value(r.name);
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(r.thread));
    w.key("ts").value(r.start_seconds * 1e6);
    w.key("dur").value(r.duration_seconds * 1e6);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::int64_t>(r.id));
    w.key("parent").value(r.parent);
    w.key("depth").value(static_cast<std::int64_t>(r.depth));
    if (!r.tag.empty()) w.key("tag").value(r.tag);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.end_object();
  return w.str();
}

void write_trace_json(const std::filesystem::path& path) {
  io::write_file_atomic(path, trace_to_json(Tracer::global().records()) +
                                  "\n");
}

namespace spanprof {

void set_tracking_enabled(bool enabled) {
  g_span_tracking.store(enabled, std::memory_order_relaxed);
}

std::size_t snapshot_active_spans(ActiveSpan* out, std::size_t max) noexcept {
  std::uint32_t d = t_tracked_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (d > kTrackedDepth) d = kTrackedDepth;
  std::size_t n = d;
  if (n > max) n = max;
  for (std::size_t i = 0; i < n; ++i) out[i] = t_span_stack[i];
  return n;
}

}  // namespace spanprof

}  // namespace ropus::obs
