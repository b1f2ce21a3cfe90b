// Per-slot flight recorder: a low-overhead stream of what every application
// (or the pool aggregate) demanded, requested and was granted at each
// calendar slot. The recording is the raw material for post-hoc SLO
// analysis (`ropus_cli report`, obs/watchdog.h): the paper's QoS contracts
// are time-series statements, so run-end aggregates alone cannot show
// *when* a band was breached or how long a degraded run lasted.
//
// Design constraints:
//  * appending must be cheap enough for the simulator and schedule slot
//    loops at stride 1 — the fast path is a thread-local bump into a
//    pre-sized chunk, no locks, no I/O;
//  * nothing is written until finish(): the file appears atomically (via
//    io::write_file_atomic) or not at all, so a killed run never leaves a
//    truncated recording;
//  * a bounded ring mode (chunk-granularity eviction) caps memory on long
//    runs — the newest records survive, the dropped count is reported in
//    the file header;
//  * recording sites reach the recorder through a process-global pointer
//    (like Tracer::global()), so hot paths need no API changes and cost a
//    single relaxed load when recording is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ropus::obs {

/// App id for pool-aggregate records (sim::evaluate's single-server view).
inline constexpr std::uint16_t kPoolApp = 0xFFFF;

/// Telemetry pipeline status of the observation behind a record, mirroring
/// wlm::ObservationClass (kNone when the run had no telemetry channel).
enum class TelemetryMark : std::uint8_t {
  kNone = 0,
  kOk = 1,
  kStale = 2,
  kMissing = 3,
  kCorrupt = 4,
};

/// One recorded slot for one application (or the pool aggregate). All
/// allocation quantities are CPUs. `granted` is stored exactly as the
/// execution simulation stored it, so batch compliance recomputed from a
/// stride-1 recording is bit-for-bit identical; `satisfied2` is the CoS2
/// share actually served (exact for pool records, the CoS1-first estimate
/// `min(cos2, max(0, granted - cos1))` for app records).
struct SlotRecord {
  // Flag bits.
  static constexpr std::uint8_t kFallback = 1;     // controller on fallback
  static constexpr std::uint8_t kFailureMode = 2;  // failure-mode requirement
  static constexpr std::uint8_t kUnhosted = 4;     // no feasible host
  static constexpr std::uint8_t kOutage = 8;       // migration blackout

  std::uint32_t slot = 0;
  std::uint16_t app = 0;      // recorder-assigned id; kPoolApp = aggregate
  std::uint16_t section = 0;  // faultsim trial / evaluation pass
  std::uint8_t telemetry = 0; // TelemetryMark
  std::uint8_t flags = 0;
  double demand = 0.0;      // true demand (CPUs)
  double cos1 = 0.0;        // requested guaranteed allocation
  double cos2 = 0.0;        // requested shared allocation
  double granted = 0.0;     // total granted allocation
  double satisfied2 = 0.0;  // CoS2 share of `granted`

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  /// granted / requested; 1 when nothing was requested.
  double satisfied_fraction() const {
    const double requested = cos1 + cos2;
    return requested > 0.0 ? granted / requested : 1.0;
  }

  friend bool operator==(const SlotRecord&, const SlotRecord&) = default;
};

/// Serialized size of one record in the binary format.
inline constexpr std::size_t kRecordBytes = 52;

struct RecorderConfig {
  enum class Format { kBinary, kCsv };

  std::filesystem::path path;
  Format format = Format::kBinary;
  /// Record slots where `slot % stride == 0`; 1 = every slot.
  std::size_t stride = 1;
  /// Keep roughly the newest `ring_records` records (eviction happens at
  /// chunk granularity); 0 = unbounded.
  std::size_t ring_records = kDefaultRingRecords;

  static constexpr std::size_t kDefaultRingRecords = 1u << 20;

  /// Throws InvalidArgument on an empty path or zero stride.
  void validate() const;
};

/// Parses a --record-out spec: `path[:stride[:ring]]`. The format is picked
/// from the extension (`.csv` = CSV, anything else = binary). A trailing
/// `:0` ring disables the bound. Throws InvalidArgument on bad numbers.
RecorderConfig parse_record_spec(std::string_view spec);

class Recorder {
 public:
  explicit Recorder(RecorderConfig config);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  /// Does NOT write: only finish() produces the file, so an abandoned
  /// recorder (exception unwind, crash) leaves nothing half-written.
  /// Deactivates itself if still installed as the active recorder.
  ~Recorder();

  /// The process-global recorder instrumentation sites append to, or
  /// nullptr when recording is off. A relaxed atomic load — hot loops load
  /// it once per run.
  static Recorder* active();
  static void set_active(Recorder* recorder);

  /// Registers (or looks up) an application name; ids are dense from 0 in
  /// registration order. Takes a mutex — resolve once per run, not per slot.
  std::uint16_t app_id(std::string_view name);

  /// Declares the calendar geometry for the file header; first call wins
  /// (recordings mix sites, but a process works one calendar at a time).
  void set_calendar(double minutes_per_sample, std::size_t slots_per_day);

  /// Current section tag stamped by recording sites into their records.
  /// faultsim sets one per trial; sim::evaluate opens one per call so the
  /// capacity search's repeated passes over the same slots stay separable.
  std::uint16_t section() const {
    return section_.load(std::memory_order_relaxed);
  }
  void set_section(std::uint16_t section) {
    section_.store(section, std::memory_order_relaxed);
  }
  std::uint16_t begin_section() {
    return static_cast<std::uint16_t>(
        section_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  bool should_record(std::size_t slot) const {
    return slot % config_.stride == 0;
  }

  /// Appends one record. Thread-safe; the fast path is a thread-local
  /// cursor check plus a struct copy — no atomics, no locks.
  void append(const SlotRecord& record) {
    TlsSlot& slot = tls_;
    if (slot.owner != this || slot.epoch != epoch_ ||
        finished_.load(std::memory_order_relaxed) ||
        slot.records->size() == chunk_capacity_) [[unlikely]] {
      if (!refill(slot)) return;  // finished: discard
    }
    slot.records->push_back(record);
  }

  /// Serializes the retained records and writes the file atomically.
  /// Idempotent; appends after finish() are discarded. Call only after
  /// recording threads are done (join happens-before finish). Throws
  /// IoError when the write fails.
  void finish();

  const RecorderConfig& config() const { return config_; }

 private:
  struct Chunk {
    explicit Chunk(std::size_t capacity) { records.reserve(capacity); }
    std::vector<SlotRecord> records;
    /// True while the writing thread may still append (guarded by mutex_;
    /// a chunk closes when its thread refills away from it). The ring only
    /// evicts closed chunks, so raw thread-local pointers never dangle.
    bool open = true;
  };
  /// Per-thread cursor into the thread's current chunk. Raw pointers and a
  /// trivial destructor keep the per-append TLS access to a plain
  /// segment-relative load — no init guard, no exit-handler registration.
  /// `owner`+`epoch` gate every dereference, so a stale pointer left behind
  /// by a destroyed recorder is never followed.
  struct TlsSlot {
    const Recorder* owner = nullptr;
    std::uint64_t epoch = 0;
    Chunk* chunk = nullptr;
    std::vector<SlotRecord>* records = nullptr;
  };

  static thread_local TlsSlot tls_;
  bool refill(TlsSlot& slot);

  RecorderConfig config_;
  std::size_t chunk_capacity_;
  std::size_t max_chunks_;
  const std::uint64_t epoch_;  // invalidates stale thread-local caches
  std::atomic<std::uint16_t> section_{0};
  std::atomic<bool> finished_{false};
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<Chunk>> chunks_;
  std::vector<std::string> apps_;
  std::uint64_t dropped_ = 0;         // ring evictions (guarded by mutex_)
  double minutes_per_sample_ = 0.0;  // 0 = never declared
  std::size_t slots_per_day_ = 0;
};

/// A recording read back from disk.
struct Recording {
  RecorderConfig::Format format = RecorderConfig::Format::kBinary;
  std::size_t stride = 1;
  double minutes_per_sample = 5.0;
  std::size_t slots_per_day = 288;
  std::uint64_t dropped = 0;             // ring evictions before finish()
  std::vector<std::string> apps;         // app id -> name
  std::vector<SlotRecord> records;

  /// App name for a record (handles kPoolApp and unknown ids).
  std::string app_name(std::uint16_t id) const;
};

/// Reads either format back (sniffed from the file's magic bytes). Throws
/// IoError on missing files or malformed content — a truncated body that
/// disagrees with the self-describing header is an error, never silently
/// shortened.
Recording read_recording(const std::filesystem::path& path);

}  // namespace ropus::obs
