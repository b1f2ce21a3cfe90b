// Whole-file input that reports read errors, and crash-safe file output.
//
// read_file reads with read(2) and throws on any failure but a missing
// file: a stream's `buf << in.rdbuf()` swallows a read error (a directory
// reads as an empty file), so a short read would pass for the end of the
// file — and a journal's torn tail would be cut where the read failed.
//
// Reports that take minutes of Monte-Carlo to produce must never be left
// half-written by a crash or a full disk: write_file_atomic stages the
// content in a temporary file next to the destination, flushes it, and
// renames it into place. rename(2) within one directory is atomic on POSIX,
// so readers observe either the old file or the complete new one — never a
// truncated mix.
//
// Durability: atomicity alone survives a process crash but not power loss —
// the rename may be reordered ahead of the data blocks, or the directory
// entry may never reach the disk at all. write_file_atomic therefore
// fsyncs the staged file *before* the rename and fsyncs the containing
// directory *after* it, the classic create-rename-durable sequence. The
// serve daemon's checkpoints lean on this ordering (docs/serve.md).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace ropus::io {

/// The whole content of the file at `path`, or std::nullopt when no file
/// is there. Throws IoError on any other open failure and on any read
/// failure (a directory, EIO).
std::optional<std::string> read_file(const std::filesystem::path& path);

/// Writes `content` to `path` atomically (temp file in the same directory +
/// fsync + rename + directory fsync). Throws IoError on any failure; the
/// temporary file is removed before the throw, so a failed write leaves no
/// debris.
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view content);

/// fsyncs the directory containing `path` so a preceding rename/creat in it
/// survives power loss. No-op on platforms without directory fsync.
/// Throws IoError when the directory cannot be opened or synced.
void fsync_parent_dir(const std::filesystem::path& path);

/// Process-wide fsync counts, so tests can assert the durability call path
/// actually runs (there is no portable way to observe fsync from outside).
struct FsyncStats {
  std::uint64_t file_fsyncs = 0;
  std::uint64_t dir_fsyncs = 0;
};
FsyncStats fsync_stats();

}  // namespace ropus::io
