// The serve daemon envelope around the deterministic Arbiter: ingest
// thread with a bounded queue (backpressure, not data loss), crash-safe
// journal + periodic checkpoints with optional compaction, overload
// shedding of optional work, and graceful drain on EOF, shutdown request,
// or termination signal.
//
// Division of labour: everything that may observe time, thread scheduling
// or I/O pressure lives here; the Arbiter it wraps is a pure function of
// the accepted message sequence. Shedding therefore only ever skips
// *optional* work (periodic checkpoints) — verdict bytes are identical
// under any load.
//
// DaemonCore is the transport-independent half: parse, handle,
// journal-before-emit, end-marker framing, checkpoint/compaction policy.
// run_daemon drives it from stdin/stdout; serve_socket (transport.h)
// drives the same core from a listening socket, so both transports share
// one determinism and recovery story.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/burnrate.h"
#include "serve/arbiter.h"
#include "serve/checkpoint.h"

namespace ropus::serve {

struct DaemonOptions {
  /// Checkpoint snapshot path; empty disables checkpoints (journal-only
  /// recovery still works when a journal path is set). Without a journal
  /// the checkpoint alone is the source of truth: restart restores the
  /// last snapshot, losing only the slots since it was written.
  std::filesystem::path checkpoint_path;
  /// Append-only journal of accepted input lines; empty disables
  /// persistence entirely (a crash then loses all state).
  std::filesystem::path journal_path;
  /// Slots between automatic checkpoints.
  std::size_t checkpoint_every_slots = 64;
  /// Truncate the journal to its compaction header after every successful
  /// checkpoint (snapshot-then-truncate), bounding steady-state disk usage
  /// to roughly one checkpoint interval of frames. Requires both paths;
  /// once a journal has been compacted, the checkpoint is mandatory for
  /// recovery — the dropped prefix only exists inside it.
  bool compact_journal = false;
  /// Ingest queue bound; a full queue blocks the reader thread, which
  /// blocks the client's pipe — backpressure, never silent drops.
  std::size_t queue_capacity = 1024;
  /// Lines longer than this are answered with a line_too_long error and
  /// never parsed or journaled.
  std::size_t max_line_bytes = 1 << 20;
  /// Soft per-tick processing deadline; when the previous tick ran over,
  /// optional work (the periodic checkpoint) is shed until load recedes.
  /// 0 disables the deadline.
  double tick_deadline_ms = 0.0;
  /// Requests whose envelope processing exceeds this many milliseconds
  /// are logged at warn level (rate-limited). 0 disables. Pure
  /// observability: never changes replies or shedding.
  double slow_request_ms = 0.0;

  void validate() const;
};

/// True when optional work should be shed: the ingest queue is more than
/// half full, or the previous tick blew its processing deadline. Pure so
/// the policy is unit-testable without a daemon.
bool should_shed(std::size_t queue_depth, std::size_t queue_capacity,
                 double last_tick_ms, double deadline_ms);

/// How the daemon recovered its state on startup. kCheckpointOnly is the
/// journal-less configuration: the snapshot is the sole source of truth.
enum class RecoveryMode {
  kFresh,
  kJournalReplay,
  kCheckpointAndTail,
  kCheckpointOnly,
};

struct RecoveryReport {
  RecoveryMode mode = RecoveryMode::kFresh;
  std::uint64_t journal_entries = 0;     // total accepted lines (incl. base)
  std::uint64_t journal_base = 0;        // entries compacted into a checkpoint
  std::uint64_t journal_valid_bytes = 0; // file length of the valid prefix
  std::uint64_t replayed = 0;            // lines replayed through the arbiter
  bool torn_tail = false;                // journal had a truncated last record
  std::string checkpoint_error;          // why the checkpoint was not used
};

/// Recovers the request id from a raw input line that will not (or did
/// not) reach the arbiter, so an error reply emitted outside process_line
/// — e.g. the transport's overload shed — can still be framed with an end
/// marker. Best effort: anything without a well-formed id yields "".
std::string best_effort_id(const std::string& line);

/// Restores an arbiter from checkpoint + journal tail (fast path) or full
/// journal replay (fallback). A journal whose compaction header is
/// corrupt (unknown base) is recovered from the covering checkpoint
/// alone, checkpoint-only style. Exposed for tests and the chaos drill's
/// offline verdict recomputation. Throws IoError when the state is
/// unreconstructible: the journal was compacted (its base entries exist
/// only inside a checkpoint) but no usable checkpoint covers the base —
/// including the corrupt-header case with no usable checkpoint.
/// A v3 checkpoint's profiles resolve through `store`, or through the
/// store beside the checkpoint scanned for this call when it is null.
RecoveryReport recover_state(const ServeConfig& config,
                             const DaemonOptions& options, Arbiter& arbiter,
                             const ProfileStore* store = nullptr);

/// Transport-independent daemon core. Construction recovers state (same
/// semantics as recover_state) and opens the journal for appending; then
/// each accepted input line flows through process_line, whose replies are
/// a pure function of the accepted line sequence — the property both the
/// stdio and socket transports inherit without re-proving it.
class DaemonCore {
 public:
  /// Throws InvalidArgument on bad config/options, IoError when persisted
  /// state cannot be reconstructed.
  DaemonCore(const ServeConfig& config, const DaemonOptions& options);

  const RecoveryReport& recovery() const { return recovery_; }
  /// The {"type":"ready",...} line transports emit before serving.
  std::string ready_line() const;

  struct Result {
    std::vector<std::string> replies;  // in emission order, no newlines
    bool shutdown = false;             // a graceful drain was requested
  };

  /// Processes one raw input line: blank lines yield no replies, oversized
  /// lines a typed error, everything else is parsed, handled, journaled
  /// (before any reply is surfaced — journal-before-emit), and answered.
  /// Requests carrying an "id" get a trailing end marker counting their
  /// reply lines, including error replies, so clients can frame responses.
  /// `shed` gates optional work only (periodic/explicit checkpoints); it
  /// never changes verdict bytes. Throws IoError on persistence failure.
  Result process_line(const std::string& line, bool shed);

  /// Writes a checkpoint now (and compacts the journal when configured).
  /// Returns false when checkpoints are disabled. Throws IoError.
  bool checkpoint_now();

  double last_tick_ms() const { return last_tick_ms_; }
  const DaemonOptions& options() const { return options_; }
  const Arbiter& arbiter() const { return arbiter_; }
  Arbiter& arbiter() { return arbiter_; }
  std::uint64_t journal_entries() const;
  std::uint64_t journal_bytes() const;
  /// Journal frames appended since the last compaction (0 without a
  /// journal); a tail far beyond the checkpoint interval means the
  /// daemon cannot keep up with its own compaction — the /healthz
  /// journal-lag signal.
  std::uint64_t journal_tail_frames() const;

  /// The {"type":"stats"} reply body: live introspection (slot, apps,
  /// journal size, tick latency percentiles, theta, backlog, active
  /// burn-rate alerts). Read-only; also served as the NDJSON `stats` verb.
  std::string stats_reply() const;

  /// Error-budget burn trackers: "slo" is fed one point per tick (bad =
  /// a watchdog alert fired that tick), "admission" one per admit (bad =
  /// reject). Both live in the envelope — they observe verdicts, they
  /// never shape them.
  const obs::BurnRate& slo_burn() const { return slo_burn_; }
  const obs::BurnRate& admission_burn() const { return admission_burn_; }
  /// Rules currently firing across both streams.
  std::size_t active_alert_count() const {
    return slo_burn_.active_count() + admission_burn_.active_count();
  }

 private:
  DaemonOptions options_;
  Arbiter arbiter_;
  RecoveryReport recovery_;
  std::unique_ptr<Journal> journal_;
  /// The profile store beside the checkpoint, scanned once at startup and
  /// kept in memory across checkpoints (null without a checkpoint path).
  std::unique_ptr<ProfileStore> store_;
  std::size_t slots_at_checkpoint_ = 0;
  double last_tick_ms_ = 0.0;
  obs::BurnRate slo_burn_;
  obs::BurnRate admission_burn_;
  std::size_t watchdog_alerts_seen_ = 0;  // alerts() + alerts_dropped()
};

/// Runs the daemon loop: reads NDJSON requests from `in`, writes replies
/// to `out` and operational notes to `err`. Returns 0 on EOF or a
/// shutdown request, 130 when a termination signal drained it. Throws
/// IoError on unrecoverable persistence failures.
///
/// `in` must outlive the daemon's process when the run ends by signal or
/// shutdown request while the reader thread is still blocked on it (the
/// thread is detached in that case); stdin qualifies, and streams that
/// reach EOF are always joined.
int run_daemon(const ServeConfig& config, const DaemonOptions& options,
               std::istream& in, std::ostream& out, std::ostream& err);

}  // namespace ropus::serve
