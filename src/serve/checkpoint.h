// Crash-safe persistence for the serve daemon.
//
// Two files cooperate:
//  * The **journal** is the source of truth: an append-only log of every
//    accepted (state-changing) input line, each framed as
//    `<crc32-8hex> <len> <line>\n` and flushed before the reply is
//    emitted. Replaying the journal through a fresh Arbiter reproduces
//    the exact state and verdict bytes, because the arbiter is a pure
//    function of its accepted inputs. A torn tail (crash mid-append) is
//    detected by the framing and truncated — a line is either completely
//    journaled or not at all.
//  * The **checkpoint** is a snapshot: the arbiter's serialized state plus
//    the journal entry count it covers, framed with a CRC'd header and
//    written via io::write_file_atomic (appears whole or not at all, and
//    is fsynced through file and directory). Restore loads the checkpoint
//    and replays only the journal tail; a missing, truncated, or corrupt
//    checkpoint falls back to a full journal replay — same state either
//    way, just slower.
//
// Compaction bounds the journal. A compacted journal starts with a header
// line `ROPUS-JOURNAL v2 <crc8hex> base=<N>` recording that entries
// 0..N-1 were folded into a checkpoint and dropped; frames after the
// header are entries N, N+1, ... The snapshot-then-truncate ordering makes
// every crash point safe: before the truncate both files are whole (tail
// replay just starts earlier); the truncate itself is an atomic rename
// (old journal or new, never a mix). Once compaction has run, the
// checkpoint stops being optional — recovery refuses to start from a
// compacted journal whose base is not covered by a usable checkpoint,
// because the dropped entries are unrecoverable. A headerless journal is
// the v1 format: base 0, never compacted.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "serve/arbiter.h"

namespace ropus::serve {

/// Writes a checkpoint of `arbiter` covering the first `journal_entries`
/// journal lines. Atomic and durable: the previous checkpoint survives a
/// crash mid-write, and the new one survives power loss once the call
/// returns. Throws IoError on filesystem failure.
void write_checkpoint(const std::filesystem::path& path,
                      const Arbiter& arbiter, std::uint64_t journal_entries);

struct CheckpointLoad {
  bool ok = false;                     // state was restored
  bool missing = false;                // no file at all (vs. a bad one)
  std::uint64_t journal_entries = 0;   // journal lines the state covers
  std::string error;                   // why ok == false (diagnostic)
};

/// Restores `arbiter` from the checkpoint at `path`. Never throws on a
/// bad file — a missing/unreadable/truncated/corrupt checkpoint reports
/// ok == false (with the reason) and leaves `arbiter` untouched, so the
/// caller falls back to journal replay.
CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter);

/// Append-only journal of accepted input lines with per-line CRC framing
/// and checkpoint-anchored compaction.
class Journal {
 public:
  struct Recovered {
    std::uint64_t base = 0;           // entries compacted away before lines
    std::vector<std::string> lines;   // the valid on-disk suffix, in order
    std::uint64_t valid_bytes = 0;    // file length of the valid prefix
    bool torn_tail = false;           // trailing garbage was discarded
    // The compaction magic is present but its header fails to parse or
    // checksum: the base is unknown, so the frames that follow cannot be
    // indexed and the whole file is unusable. Distinct from a plain torn
    // tail because recovery must NOT treat this as "journal holds zero
    // entries" — the covering checkpoint is the only usable state copy.
    bool header_corrupt = false;

    /// Total accepted entries the journal accounts for (compacted + kept).
    std::uint64_t entries() const { return base + lines.size(); }
  };

  /// Parses the journal at `path` (missing file -> empty). A malformed or
  /// CRC-failing suffix is treated as a torn tail: everything before it is
  /// returned, everything after discarded. A file without the v2 header is
  /// read as the v1 format with base 0. Throws IoError when the file cannot
  /// be read (a directory, EIO): a read error is not a torn tail, and the
  /// truncation that follows one would delete journaled entries.
  static Recovered recover(const std::filesystem::path& path);

  /// Opens `path` for appending after truncating it to `valid_bytes`
  /// (discarding any torn tail found by recover()). `entries` seeds the
  /// total entry counter (compacted entries included); `base` is the
  /// compaction base to stamp when the file must be created fresh. Throws
  /// IoError when the file cannot be opened.
  Journal(const std::filesystem::path& path, std::uint64_t valid_bytes,
          std::uint64_t entries, std::uint64_t base = 0);

  /// Frames, appends and flushes one line. Throws IoError on write failure.
  void append(std::string_view line);

  /// Drops every entry already covered by a checkpoint: atomically replaces
  /// the file with a header-only journal whose base is the current entry
  /// count. Call only *after* the covering checkpoint is durably on disk
  /// (snapshot-then-truncate). Returns the bytes reclaimed. Throws IoError
  /// on filesystem failure.
  std::uint64_t compact();

  std::uint64_t entries() const { return entries_; }
  /// Frames physically in the file, i.e. entries not yet compacted away.
  /// This is the quantity a checkpoint interval bounds: it keeps growing
  /// across crash/restart cycles until a compaction resets it, so the
  /// daemon uses it (not slots since the last restart) to decide when an
  /// automatic checkpoint is due.
  std::uint64_t tail_frames() const { return entries_ - base_; }
  /// Current on-disk size (header plus frames appended since the base).
  std::uint64_t bytes() const { return bytes_; }

 private:
  void open_for_append();

  std::filesystem::path path_;
  std::uint64_t entries_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t bytes_ = 0;
  // Kept open across appends; flushed per line (complete-or-discarded is
  // guaranteed by the framing, not by fsync).
  std::FILE* file_ = nullptr;

 public:
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
};

}  // namespace ropus::serve
