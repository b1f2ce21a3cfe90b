#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/signals.h"
#include "obs/metrics.h"
#include "obs/span.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

// glibc spells the SIGEV_THREAD_ID target field through a union; the
// kernel-header name is the conventional accessor.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // __linux__

// The frame-pointer walk reads raw stack words between the sanitizers'
// redzones; it is bounds-checked against the pthread stack extent, but
// ASan/TSan cannot know that.
#if defined(__GNUC__) || defined(__clang__)
#define ROPUS_NO_SANITIZE __attribute__((no_sanitize("address", "thread")))
#else
#define ROPUS_NO_SANITIZE
#endif

namespace ropus::obs::prof {

namespace {

/// Hard caps baked into the fixed-size RawSample so the signal handler
/// never allocates.
constexpr std::size_t kMaxFrames = 48;
constexpr std::size_t kMaxSpans = 16;
/// Samples buffered per thread between collector drains: ~5s of headroom
/// at 99 Hz against a stalled collector.
constexpr std::uint32_t kRingCapacity = 512;

/// What the SIGPROF handler writes: raw return addresses (innermost
/// first) and the open-span stack (outermost first), both by value — no
/// pointers into anything that can move.
struct RawSample {
  std::uint32_t n_frames = 0;
  std::uint32_t n_spans = 0;
  void* frames[kMaxFrames];
  spanprof::ActiveSpan spans[kMaxSpans];
};

/// Aggregation key for identical samples: frame addresses plus the span
/// stack as (name pointer, length) pairs — span names are string literals
/// (the ScopedSpan contract), so pointer identity is name identity.
struct AggKey {
  std::vector<std::uintptr_t> frames;
  std::vector<std::pair<std::uintptr_t, std::uint32_t>> spans;
  auto operator<=>(const AggKey&) const = default;
};

#if defined(__linux__)

/// Per-thread sampling state. The handler is the SPSC producer, the
/// collector the consumer: head/tail are free-running counters and the
/// slot index is `value % kRingCapacity` (a capture would need 2^32
/// samples — 500 days at 99 Hz — to wrap). Leaked on thread exit so the
/// collector can still drain a dead thread's last samples.
struct ThreadState {
  std::atomic<std::uint32_t> head{0};
  std::atomic<std::uint32_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> truncated{0};
  /// Nonzero while the handler is mid-sample; start()/stop() wait for it
  /// to clear before resetting or final-draining the ring.
  std::atomic<std::uint32_t> in_handler{0};
  std::atomic<bool> alive{true};
  std::vector<RawSample> ring = std::vector<RawSample>(kRingCapacity);
  timer_t timer{};
  bool has_timer = false;
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
};

thread_local ThreadState* t_state = nullptr;

/// The only state the handler reads besides its own ThreadState.
std::atomic<bool> g_sampling{false};

/// One capture in flight. Owned by start()/stop() under g_control; the
/// collector thread touches only cv fields, agg and samples.
struct Capture {
  int hz = 0;
  double start_seconds = 0.0;
  std::thread collector;
  std::mutex cv_mutex;
  std::condition_variable cv;
  bool stop_requested = false;
  std::map<AggKey, std::uint64_t> agg;
  std::atomic<std::uint64_t> samples{0};
};

/// Thread registry plus the capture's arming state, so a thread that
/// registers mid-capture (a pool worker spawned by the first sharded loop
/// after /debug/profile began) arms its own timer immediately.
struct SharedState {
  std::vector<ThreadState*> threads;
  bool armed = false;
  int hz = 0;
};

std::mutex g_control;  // serializes start/stop/state; outer of g_threads
std::mutex g_threads;  // guards shared() — the only lock register takes
bool g_active = false;
std::uint64_t g_captures = 0;
Capture* g_capture = nullptr;

SharedState& shared() {
  static SharedState* state = new SharedState();  // leaked, like Registry
  return *state;
}

/// Frame-pointer unwind of the interrupted context. Async-signal-safe:
/// bounds-checked loads from this thread's own stack, nothing else. The
/// return addresses are shifted back by one byte so they symbolize to the
/// call site instead of the instruction after it.
ROPUS_NO_SANITIZE
std::uint32_t walk_stack(const ucontext_t* uc, const ThreadState* ts,
                         void** out) {
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif
  std::uint32_t n = 0;
  if (pc != 0) out[n++] = reinterpret_cast<void*>(pc);
  const std::uintptr_t hi = ts->stack_hi;
  std::uintptr_t lo = ts->stack_lo;
  if (lo == 0 || hi == 0) return n;  // unknown stack extent: leaf only
  while (n < kMaxFrames) {
    if (fp < lo || fp + 2 * sizeof(void*) > hi ||
        (fp & (sizeof(void*) - 1)) != 0) {
      break;
    }
    const std::uintptr_t* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 0x1000) break;
    out[n++] = reinterpret_cast<void*>(ret - 1);
    if (next <= fp) break;  // frames must strictly approach the stack base
    lo = fp;
    fp = next;
  }
  return n;
}

/// The SIGPROF action. Touches only this thread's state and lock-free
/// atomics; saves/restores errno; never blocks, drops on ring overflow.
extern "C" void on_profile_tick(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  ThreadState* ts = t_state;
  if (ts != nullptr && g_sampling.load(std::memory_order_relaxed)) {
    ts->in_handler.fetch_add(1, std::memory_order_acquire);
    const std::uint32_t head = ts->head.load(std::memory_order_relaxed);
    const std::uint32_t tail = ts->tail.load(std::memory_order_acquire);
    if (head - tail >= kRingCapacity) {
      ts->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      RawSample& s = ts->ring[head % kRingCapacity];
      s.n_frames =
          walk_stack(static_cast<const ucontext_t*>(context), ts, s.frames);
      if (s.n_frames == kMaxFrames) {
        ts->truncated.fetch_add(1, std::memory_order_relaxed);
      }
      s.n_spans = static_cast<std::uint32_t>(
          spanprof::snapshot_active_spans(s.spans, kMaxSpans));
      ts->head.store(head + 1, std::memory_order_release);
    }
    ts->in_handler.fetch_sub(1, std::memory_order_release);
  }
  errno = saved_errno;
}

void arm_timer(ThreadState& ts, int hz) {
  if (!ts.has_timer) return;
  itimerspec spec{};
  const long ns = 1000000000L / (hz < 1 ? 1 : hz);
  spec.it_interval.tv_sec = ns / 1000000000L;
  spec.it_interval.tv_nsec = ns % 1000000000L;
  spec.it_value = spec.it_interval;
  ::timer_settime(ts.timer, 0, &spec, nullptr);
}

void disarm_timer(ThreadState& ts) {
  if (!ts.has_timer) return;
  itimerspec spec{};
  ::timer_settime(ts.timer, 0, &spec, nullptr);
}

/// Blocks until no handler instance is mid-sample on `ts`. Only called
/// when no new sample can begin (timers disarmed or sampling disabled),
/// so this is a microseconds-scale wait for an already-running handler.
void wait_handler_quiesced(ThreadState& ts) {
  while (ts.in_handler.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void reset_ring(ThreadState& ts) {
  wait_handler_quiesced(ts);
  ts.head.store(0, std::memory_order_relaxed);
  ts.tail.store(0, std::memory_order_relaxed);
  ts.dropped.store(0, std::memory_order_relaxed);
  ts.truncated.store(0, std::memory_order_relaxed);
}

/// Moves every buffered sample of `ts` into the aggregation map. SPSC
/// consumer side: acquire head, read slots, release tail.
std::uint64_t drain_ring(ThreadState& ts,
                         std::map<AggKey, std::uint64_t>& agg) {
  const std::uint32_t head = ts.head.load(std::memory_order_acquire);
  std::uint32_t tail = ts.tail.load(std::memory_order_relaxed);
  std::uint64_t drained = 0;
  while (tail != head) {
    const RawSample& s = ts.ring[tail % kRingCapacity];
    AggKey key;
    key.frames.reserve(s.n_frames);
    for (std::uint32_t i = 0; i < s.n_frames; ++i) {
      key.frames.push_back(reinterpret_cast<std::uintptr_t>(s.frames[i]));
    }
    key.spans.reserve(s.n_spans);
    for (std::uint32_t i = 0; i < s.n_spans; ++i) {
      key.spans.emplace_back(
          reinterpret_cast<std::uintptr_t>(s.spans[i].name), s.spans[i].size);
    }
    agg[key] += 1;
    ++drained;
    ++tail;
  }
  ts.tail.store(tail, std::memory_order_release);
  return drained;
}

void collector_loop(Capture* cap) {
  std::unique_lock<std::mutex> lock(cap->cv_mutex);
  for (;;) {
    cap->cv.wait_for(lock, std::chrono::milliseconds(20),
                     [&] { return cap->stop_requested; });
    const bool stopping = cap->stop_requested;
    lock.unlock();
    std::uint64_t drained = 0;
    {
      const std::lock_guard<std::mutex> threads_lock(g_threads);
      for (ThreadState* ts : shared().threads) {
        drained += drain_ring(*ts, cap->agg);
      }
    }
    if (drained != 0) {
      cap->samples.fetch_add(drained, std::memory_order_relaxed);
    }
    if (stopping) return;
    lock.lock();
  }
}

// --- Symbolization (stop() only, never in the handler) -----------------

/// Drops the parameter list from a demangled name, keeping "operator()"
/// intact: "ropus::serve::DaemonCore::process_line(std::string ...)" ->
/// "ropus::serve::DaemonCore::process_line".
std::string strip_arguments(const std::string& name) {
  std::size_t pos = 0;
  for (;;) {
    pos = name.find('(', pos);
    if (pos == std::string::npos || pos == 0) return name;
    if (name.compare(pos, 2, "()") == 0 && pos >= 8 &&
        name.compare(pos - 8, 8, "operator") == 0) {
      pos += 2;
      continue;
    }
    return name.substr(0, pos);
  }
}

/// Folded syntax reserves ';' (frame separator) and ' ' (count
/// separator); template arguments can contain both.
std::string sanitize_frame(std::string name) {
  std::erase(name, ' ');
  std::replace(name.begin(), name.end(), ';', ':');
  if (name.empty()) name = "??";
  return name;
}

std::string symbolize(std::uintptr_t addr) {
  Dl_info info;
  std::memset(&info, 0, sizeof info);
  if (::dladdr(reinterpret_cast<void*>(addr), &info) != 0 &&
      info.dli_sname != nullptr) {
    std::string name = info.dli_sname;
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) name = demangled;
    std::free(demangled);
    return sanitize_frame(strip_arguments(name));
  }
  char buf[300];
  if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    const std::uintptr_t offset =
        addr - reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    std::snprintf(buf, sizeof buf, "%.200s+0x%zx", base,
                  static_cast<std::size_t>(offset));
  } else {
    std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(addr));
  }
  return buf;
}

Profile build_profile(Capture& cap, double end_seconds,
                      std::uint64_t dropped, std::uint64_t truncated,
                      std::uint64_t threads) {
  Profile p;
  p.hz = cap.hz;
  p.duration_seconds = end_seconds - cap.start_seconds;
  p.dropped = dropped;
  p.truncated = truncated;
  p.threads = threads;

  std::map<std::uintptr_t, std::string> symbols;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> span_cpu;
  std::vector<std::string_view> seen;
  for (const auto& [key, count] : cap.agg) {
    p.samples += count;
    std::string stack;
    if (key.frames.empty()) {
      stack = "[unknown]";
    } else {
      for (std::size_t i = key.frames.size(); i-- > 0;) {
        auto it = symbols.find(key.frames[i]);
        if (it == symbols.end()) {
          it = symbols.emplace(key.frames[i], symbolize(key.frames[i])).first;
        }
        if (!stack.empty()) stack += ';';
        stack += it->second;
      }
    }
    p.stacks[stack] += count;

    if (key.spans.empty()) {
      p.unattributed += count;
      continue;
    }
    seen.clear();
    for (std::size_t i = 0; i < key.spans.size(); ++i) {
      const std::string_view name(
          reinterpret_cast<const char*>(key.spans[i].first),
          key.spans[i].second);
      const bool innermost = i + 1 == key.spans.size();
      if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
        seen.push_back(name);
        span_cpu[std::string(name)].second += count;  // total, once/sample
      }
      if (innermost) span_cpu[std::string(name)].first += count;  // self
    }
  }
  p.spans.reserve(span_cpu.size());
  for (auto& [name, cpu] : span_cpu) {
    p.spans.push_back(SpanCpu{name, cpu.first, cpu.second});
  }
  std::sort(p.spans.begin(), p.spans.end(),
            [](const SpanCpu& a, const SpanCpu& b) {
              if (a.self_samples != b.self_samples) {
                return a.self_samples > b.self_samples;
              }
              return a.name < b.name;
            });
  return p;
}

/// Disarms and removes the dying thread's timer. The ThreadState itself
/// is leaked (the registry comment explains why).
struct ThreadGuard {
  void activate() {}  // forces thread_local construction
  ~ThreadGuard() {
    ThreadState* ts = t_state;
    if (ts == nullptr) return;
    const std::lock_guard<std::mutex> lock(g_threads);
    if (ts->has_timer) {
      ::timer_delete(ts->timer);
      ts->has_timer = false;
    }
    ts->alive.store(false, std::memory_order_release);
    t_state = nullptr;
  }
};
thread_local ThreadGuard t_guard;

#endif  // __linux__

}  // namespace

Profiler& Profiler::global() {
  static Profiler* instance = new Profiler();  // never destroyed
  return *instance;
}

#if defined(__linux__)

bool Profiler::supported() { return true; }

void register_current_thread() {
  if (t_state != nullptr) return;
  auto* ts = new ThreadState();  // leaked by design, see ThreadState doc

  pthread_attr_t attr;
  if (::pthread_getattr_np(::pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (::pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      ts->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
      ts->stack_hi = ts->stack_lo + stack_size;
    }
    ::pthread_attr_destroy(&attr);
  }

  clockid_t clock;
  if (::pthread_getcpuclockid(::pthread_self(), &clock) == 0) {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = ::gettid();
    ts->has_timer = ::timer_create(clock, &sev, &ts->timer) == 0;
  }
  if (!ts->has_timer) {
    static log::Every rate(1, 1000);
    if (rate.allow()) {
      ROPUS_LOG(kWarn) << "profiler: no per-thread CPU timer for thread "
                       << ::gettid() << " — it will not be sampled";
    }
  }

  t_state = ts;       // before arming: the handler reads it
  t_guard.activate();  // arrange timer teardown at thread exit
  const std::lock_guard<std::mutex> lock(g_threads);
  SharedState& s = shared();
  s.threads.push_back(ts);
  if (s.armed) arm_timer(*ts, s.hz);
}

bool Profiler::start(int hz) {
  ROPUS_REQUIRE(hz >= 1 && hz <= 1000, "profiler hz must be in [1, 1000]");

  const std::lock_guard<std::mutex> control(g_control);
  if (g_active) return false;

  // Handler first (it no-ops while g_sampling is false): a timer armed by
  // a concurrent registration must never fire into SIG_DFL, which would
  // kill the process.
  signals::install_profile_handler(&on_profile_tick);
  auto* cap = new Capture();
  cap->hz = hz;
  {
    const std::lock_guard<std::mutex> lock(g_threads);
    SharedState& s = shared();
    s.armed = true;
    s.hz = hz;
    for (ThreadState* ts : s.threads) reset_ring(*ts);
  }
  spanprof::set_tracking_enabled(true);
  g_sampling.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(g_threads);
    for (ThreadState* ts : shared().threads) {
      if (ts->alive.load(std::memory_order_acquire)) {
        arm_timer(*ts, hz);
      }
    }
  }
  cap->start_seconds = monotonic_seconds();
  cap->collector = std::thread(collector_loop, cap);
  g_capture = cap;
  g_active = true;
  return true;
}

Profile Profiler::stop() {
  const std::lock_guard<std::mutex> control(g_control);
  ROPUS_REQUIRE(g_active, "no profile capture is active");
  Capture* cap = g_capture;
  const double end_seconds = monotonic_seconds();

  g_sampling.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(g_threads);
    SharedState& s = shared();
    s.armed = false;
    for (ThreadState* ts : s.threads) disarm_timer(*ts);
  }
  // SIG_IGN discards any SIGPROF already queued between disarm and here.
  signals::clear_profile_handler();
  {
    const std::lock_guard<std::mutex> cv_lock(cap->cv_mutex);
    cap->stop_requested = true;
  }
  cap->cv.notify_all();
  cap->collector.join();

  std::uint64_t dropped = 0;
  std::uint64_t truncated = 0;
  std::uint64_t threads = 0;
  {
    const std::lock_guard<std::mutex> lock(g_threads);
    for (ThreadState* ts : shared().threads) {
      wait_handler_quiesced(*ts);
      cap->samples.fetch_add(drain_ring(*ts, cap->agg),
                             std::memory_order_relaxed);
      dropped += ts->dropped.load(std::memory_order_relaxed);
      truncated += ts->truncated.load(std::memory_order_relaxed);
      ++threads;
    }
  }
  spanprof::set_tracking_enabled(false);

  Profile profile =
      build_profile(*cap, end_seconds, dropped, truncated, threads);
  delete cap;
  g_capture = nullptr;
  g_active = false;
  ++g_captures;
  return profile;
}

ProfilerState Profiler::state() const {
  const std::lock_guard<std::mutex> control(g_control);
  ProfilerState s;
  s.captures = g_captures;
  {
    const std::lock_guard<std::mutex> lock(g_threads);
    for (const ThreadState* ts : shared().threads) {
      if (ts->alive.load(std::memory_order_acquire)) ++s.threads;
      if (g_active) s.dropped += ts->dropped.load(std::memory_order_relaxed);
    }
  }
  if (g_active && g_capture != nullptr) {
    s.active = true;
    s.hz = g_capture->hz;
    s.seconds = monotonic_seconds() - g_capture->start_seconds;
    s.samples = g_capture->samples.load(std::memory_order_relaxed);
  }
  return s;
}

#else  // !__linux__

bool Profiler::supported() { return false; }

void register_current_thread() {}

bool Profiler::start(int hz) {
  ROPUS_REQUIRE(hz >= 1 && hz <= 1000, "profiler hz must be in [1, 1000]");
  ROPUS_LOG(kWarn) << "profiler: sampling is not supported on this platform";
  return false;
}

Profile Profiler::stop() {
  throw InvalidArgument("no profile capture is active");
}

ProfilerState Profiler::state() const { return ProfilerState{}; }

#endif  // __linux__

std::string state_json() {
  const ProfilerState state = Profiler::global().state();
  json::Writer w;
  w.begin_object();
  w.key("supported").value(Profiler::supported());
  w.key("active").value(state.active);
  w.key("hz").value(static_cast<std::int64_t>(state.hz));
  w.key("seconds").value(state.seconds);
  w.key("samples").value(static_cast<std::int64_t>(state.samples));
  w.key("dropped").value(static_cast<std::int64_t>(state.dropped));
  w.key("threads").value(static_cast<std::int64_t>(state.threads));
  w.key("captures").value(static_cast<std::int64_t>(state.captures));
  w.end_object();
  return w.str();
}

// --- Folded-profile toolkit --------------------------------------------

std::string to_folded(const FoldedStacks& stacks) {
  std::string out;
  for (const auto& [stack, count] : stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

FoldedStacks parse_folded(std::string_view text) {
  FoldedStacks out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    const std::size_t sep = line.rfind(' ');
    if (sep == std::string_view::npos || sep == 0) {
      throw IoError("folded profile line " + std::to_string(line_no) +
                    ": expected \"stack count\"");
    }
    const std::string_view count_text = line.substr(sep + 1);
    std::uint64_t count = 0;
    const auto [end, ec] = std::from_chars(
        count_text.data(), count_text.data() + count_text.size(), count);
    if (ec != std::errc() || end != count_text.data() + count_text.size()) {
      throw IoError("folded profile line " + std::to_string(line_no) +
                    ": bad sample count '" + std::string(count_text) + "'");
    }
    out[std::string(line.substr(0, sep))] += count;
  }
  return out;
}

void merge_folded(FoldedStacks& into, const FoldedStacks& from) {
  for (const auto& [stack, count] : from) into[stack] += count;
}

namespace {

std::vector<std::string_view> split_frames(std::string_view stack) {
  std::vector<std::string_view> frames;
  std::size_t pos = 0;
  while (pos <= stack.size()) {
    std::size_t sep = stack.find(';', pos);
    if (sep == std::string_view::npos) sep = stack.size();
    frames.push_back(stack.substr(pos, sep - pos));
    pos = sep + 1;
  }
  return frames;
}

}  // namespace

std::map<std::string, FrameStat> frame_stats(const FoldedStacks& stacks) {
  std::map<std::string, FrameStat> out;
  std::vector<std::string_view> seen;
  for (const auto& [stack, count] : stacks) {
    const std::vector<std::string_view> frames = split_frames(stack);
    out[std::string(frames.back())].self += count;
    seen.clear();
    for (const std::string_view frame : frames) {
      if (std::find(seen.begin(), seen.end(), frame) == seen.end()) {
        seen.push_back(frame);
        out[std::string(frame)].total += count;
      }
    }
  }
  return out;
}

namespace {

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Deterministic warm color from the frame name (FNV-1a hash).
std::string frame_color(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  const unsigned r = 200 + static_cast<unsigned>(h % 55);
  const unsigned g = 60 + static_cast<unsigned>((h / 55) % 120);
  const unsigned b = 20 + static_cast<unsigned>((h / 6600) % 40);
  char buf[32];
  std::snprintf(buf, sizeof buf, "rgb(%u,%u,%u)", r, g, b);
  return buf;
}

struct FlameNode {
  std::map<std::string, FlameNode, std::less<>> children;
  std::uint64_t total = 0;
};

std::size_t flame_depth(const FlameNode& node) {
  std::size_t deepest = 0;
  for (const auto& [name, child] : node.children) {
    deepest = std::max(deepest, 1 + flame_depth(child));
  }
  return deepest;
}

void render_node(const FlameNode& node, std::string_view name,
                 double x_samples, std::size_t depth, double px_per_sample,
                 std::uint64_t total_samples, std::string& out) {
  constexpr double kFrameHeight = 17.0;
  constexpr double kHeaderHeight = 40.0;
  const double x = 10.0 + x_samples * px_per_sample;
  const double w = static_cast<double>(node.total) * px_per_sample;
  const double y = kHeaderHeight + static_cast<double>(depth) * kFrameHeight;
  if (w >= 0.3 && !name.empty()) {
    const double pct = 100.0 * static_cast<double>(node.total) /
                       static_cast<double>(total_samples);
    char attrs[160];
    std::snprintf(attrs, sizeof attrs,
                  "<rect x=\"%.2f\" y=\"%.1f\" width=\"%.2f\" "
                  "height=\"15.0\" rx=\"1\" fill=\"%s\"/>",
                  x, y, w, frame_color(name).c_str());
    out += "<g>";
    char title[64];
    std::snprintf(title, sizeof title, " (%llu samples, %.2f%%)",
                  static_cast<unsigned long long>(node.total), pct);
    out += "<title>" + xml_escape(name) + title + "</title>";
    out += attrs;
    // ~7.2 px per glyph at font-size 12; draw only what fits.
    const std::size_t fit = static_cast<std::size_t>(w / 7.2);
    if (fit >= 3) {
      std::string label(name.substr(0, fit));
      if (label.size() < name.size()) {
        label.resize(label.size() >= 2 ? label.size() - 2 : 0);
        label += "..";
      }
      char text[96];
      std::snprintf(text, sizeof text,
                    "<text x=\"%.2f\" y=\"%.1f\" font-size=\"12\" "
                    "font-family=\"monospace\">",
                    x + 2.0, y + 11.5);
      out += text;
      out += xml_escape(label);
      out += "</text>";
    }
    out += "</g>\n";
  }
  double child_x = x_samples;
  for (const auto& [child_name, child] : node.children) {
    render_node(child, child_name, child_x, depth + 1, px_per_sample,
                total_samples, out);
    child_x += static_cast<double>(child.total);
  }
}

}  // namespace

std::string flamegraph_svg(const FoldedStacks& stacks,
                           std::string_view title) {
  FlameNode root;
  for (const auto& [stack, count] : stacks) {
    root.total += count;
    FlameNode* node = &root;
    for (const std::string_view frame : split_frames(stack)) {
      node = &node->children[std::string(frame)];
      node->total += count;
    }
  }
  const std::size_t depth = flame_depth(root);
  const double width = 1220.0;
  const double height = 40.0 + static_cast<double>(depth + 1) * 17.0 + 10.0;
  std::string out;
  char head[256];
  std::snprintf(head, sizeof head,
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
                "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n"
                "<rect width=\"100%%\" height=\"100%%\" fill=\"#fdfdfd\"/>\n",
                width, height, width, height);
  out += head;
  out += "<text x=\"10\" y=\"24\" font-size=\"15\" "
         "font-family=\"monospace\">";
  out += xml_escape(title);
  char meta[64];
  std::snprintf(meta, sizeof meta, " — %llu samples",
                static_cast<unsigned long long>(root.total));
  out += xml_escape(meta);
  out += "</text>\n";
  if (root.total != 0) {
    const double px_per_sample =
        (width - 20.0) / static_cast<double>(root.total);
    double child_x = 0.0;
    for (const auto& [name, child] : root.children) {
      render_node(child, name, child_x, 0, px_per_sample, root.total, out);
      child_x += static_cast<double>(child.total);
    }
  } else {
    out += "<text x=\"10\" y=\"60\" font-size=\"12\" "
           "font-family=\"monospace\">(no samples)</text>\n";
  }
  out += "</svg>\n";
  return out;
}

std::string profile_to_json(const Profile& profile) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("ropus.profile.v1");
  w.key("hz").value(static_cast<std::int64_t>(profile.hz));
  w.key("duration_seconds").value(profile.duration_seconds);
  w.key("samples").value(static_cast<std::int64_t>(profile.samples));
  w.key("unattributed").value(static_cast<std::int64_t>(profile.unattributed));
  w.key("dropped").value(static_cast<std::int64_t>(profile.dropped));
  w.key("truncated").value(static_cast<std::int64_t>(profile.truncated));
  w.key("threads").value(static_cast<std::int64_t>(profile.threads));
  w.key("stacks").begin_array();
  for (const auto& [stack, count] : profile.stacks) {
    w.begin_object();
    w.key("stack").value(stack);
    w.key("count").value(static_cast<std::int64_t>(count));
    w.end_object();
  }
  w.end_array();
  w.key("spans").begin_array();
  for (const SpanCpu& span : profile.spans) {
    w.begin_object();
    w.key("name").value(span.name);
    w.key("self").value(static_cast<std::int64_t>(span.self_samples));
    w.key("total").value(static_cast<std::int64_t>(span.total_samples));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ropus::obs::prof
