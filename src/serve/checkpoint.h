// Crash-safe persistence for the serve daemon.
//
// Three files cooperate:
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
//  * The **profile store** (ProfileStore) sits beside the checkpoint and
//    holds each admitted app's demand profile once, under a name derived
//    from its digest; a v3 checkpoint names each app's profile instead of
//    carrying it. A checkpoint appends the profiles the store lacks and
//    fsyncs them before the snapshot's rename, so a durable checkpoint
//    never names a profile the store lacks. A name the store cannot
//    resolve makes the checkpoint unusable, like a CRC failure.
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
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/arbiter.h"

namespace ropus::serve {

/// The content-addressed store of admitted apps' demand profiles beside a
/// checkpoint. Each record is the JSON array text of one profile, framed
/// like a journal line as `<crc8> <len> <name> <text>\n`. The name is
/// `<digest>.<n>`: the text's CRC-32 (Arbiter::Profile::digest) as eight
/// hex digits, and n telling apart texts that share a digest. Records are
/// appended, never changed; when the records the latest checkpoint does
/// not name outweigh the ones it does, collect() rewrites the file with
/// only the named ones. The index, and the text of every record, stay in
/// memory, shared with the apps that hold the same text, so a checkpoint
/// reads nothing back from the file.
class ProfileStore {
 public:
  /// The store beside the checkpoint at `checkpoint`.
  static std::filesystem::path path_for(
      const std::filesystem::path& checkpoint);

  /// Scans the store at `path` (a missing file is an empty store). A frame
  /// that fails to parse or checksum, or whose name is malformed, repeats
  /// an earlier name or is not its text's digest, ends the valid prefix,
  /// as a torn tail ends a journal's; the next append truncates what
  /// follows it. Throws IoError when the file cannot be read.
  explicit ProfileStore(std::filesystem::path path);

  /// The text stored under `name`, or nullptr.
  std::shared_ptr<const std::string> find(std::string_view name) const;

  /// Names each of `arbiter`'s profiles, in admission order. Profiles the
  /// store lacks are appended in one write, and the file is fsynced only
  /// when something was appended (and its directory too when the write
  /// created the file). Throws IoError, leaving the index as it was.
  std::vector<std::string> put(const Arbiter& arbiter);

  /// Call once the checkpoint naming `names` (put's result) is durable:
  /// when the records it does not name hold more bytes than the ones it
  /// does, atomically rewrites the store with only the named records.
  /// Returns whether it rewrote. Throws IoError.
  bool collect(const std::vector<std::string>& names);

  /// Length of the valid records on disk.
  std::uint64_t bytes() const { return bytes_; }

 private:
  struct Record {
    std::string name;
    std::uint32_t digest = 0;
    std::uint64_t ordinal = 0;
    std::shared_ptr<const std::string> text;
    std::uint64_t frame_bytes = 0;  // on disk, framing included
  };
  /// Index into records_ of the record named `name`, or npos.
  std::size_t index_of(std::string_view name) const;
  void append(const std::string& frames);
  void reindex();

  std::filesystem::path path_;
  std::vector<Record> records_;  // file order
  std::multimap<std::uint32_t, std::size_t> by_digest_;  // into records_
  std::uint64_t bytes_ = 0;  // valid prefix of the file
  bool exists_ = false;      // the file is there
  bool torn_ = false;        // the file holds bytes past the valid prefix
};

/// Writes a checkpoint of `arbiter` covering the first `journal_entries`
/// journal lines, through the store beside `path` (scanned for this call):
/// appends the profiles the store lacks, then the snapshot, then lets the
/// store collect. Atomic and durable: the previous checkpoint survives a
/// crash mid-write, and the new one survives power loss once the call
/// returns. Throws IoError on filesystem failure.
void write_checkpoint(const std::filesystem::path& path,
                      const Arbiter& arbiter, std::uint64_t journal_entries);

/// The snapshot step alone: a `ROPUS-CHECKPOINT v3` file naming the i-th
/// app's profile `profile_names[i]`, which ProfileStore::put returned and
/// made durable. Throws IoError on filesystem failure.
void write_snapshot(const std::filesystem::path& path, const Arbiter& arbiter,
                    std::uint64_t journal_entries,
                    const std::vector<std::string>& profile_names);

struct CheckpointLoad {
  bool ok = false;                     // state was restored
  bool missing = false;                // no file at all (vs. a bad one)
  std::uint64_t journal_entries = 0;   // journal lines the state covers
  std::string error;                   // why ok == false (diagnostic)
};

/// Restores `arbiter` from the checkpoint at `path`. Never throws on a
/// bad file — a missing/unreadable/truncated/corrupt checkpoint reports
/// ok == false (with the reason) and leaves `arbiter` untouched, so the
/// caller falls back to journal replay. A v3 checkpoint resolves its
/// profile names through `store`, or through the store beside `path`
/// scanned for this call when `store` is null; a name the store lacks
/// makes the checkpoint unusable. A v2 checkpoint carries its profiles
/// inline and needs no store.
CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter);
CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter, const ProfileStore* store);

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
