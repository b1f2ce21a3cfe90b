#include "serve/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <system_error>

#include "common/crc32.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/json.h"

namespace ropus::serve {
namespace {

// v3 names each app's profile in the profile store; v2 carried the
// profile arrays inline and is still read. A v1 checkpoint lacks the
// app-id/departure/id-cache state, so the magic rejects it up front
// instead of letting the payload parse fail halfway through.
constexpr std::string_view kCheckpointMagic = "ROPUS-CHECKPOINT v3";
constexpr std::string_view kCheckpointMagicV2 = "ROPUS-CHECKPOINT v2";
static_assert(kCheckpointMagicV2.size() == kCheckpointMagic.size(),
              "one header parser reads both versions");
constexpr std::string_view kJournalMagic = "ROPUS-JOURNAL v2 ";

std::string hex8(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return std::string(buf, 8);
}

/// Parses `text` as exactly eight lowercase hex digits.
bool parse_hex8(std::string_view text, std::uint32_t& out) {
  if (text.size() != 8) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 10);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Appends `bytes` to `out` framed as `<crc8> <len> <bytes>\n`: one journal
/// line or one profile store record.
void append_frame(std::string& out, std::string_view bytes) {
  out += hex8(crc::crc32(bytes));
  out += ' ';
  out += std::to_string(bytes.size());
  out += ' ';
  out += bytes;
  out += '\n';
}

/// Reads the frames of `content` from offset `pos`, handing each one's
/// bytes and framed length to `accept`, and returns the end of the valid
/// prefix. A frame that does not parse, fails its CRC, or that `accept`
/// refuses ends the prefix: the torn-tail rule of journal and store alike.
template <typename Accept>
std::size_t read_frames(const std::string& content, std::size_t pos,
                        Accept&& accept) {
  while (pos < content.size()) {
    // Frame: `<8hex crc> <len> <bytes>\n`.
    const std::size_t sp1 = content.find(' ', pos);
    if (sp1 == std::string::npos) break;
    std::uint32_t crc = 0;
    if (!parse_hex8(std::string_view(content).substr(pos, sp1 - pos), crc)) {
      break;
    }
    const std::size_t sp2 = content.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) break;
    std::uint64_t len = 0;
    if (!parse_u64(std::string_view(content).substr(sp1 + 1, sp2 - sp1 - 1),
                   len)) {
      break;
    }
    // Bound-check `len` before any arithmetic with it: a corrupt length
    // near 2^64 would wrap `body + len` and slip past the checks below.
    // body <= content.size() because sp2 < content.size().
    const std::size_t body = sp2 + 1;
    if (len >= content.size() - body) break;  // torn mid-body
    if (content[body + len] != '\n') break;
    const std::string_view bytes(content.data() + body, len);
    if (crc::crc32(bytes) != crc) break;
    const std::size_t end = body + len + 1;
    if (!accept(bytes, end - pos)) break;
    pos = end;
  }
  return pos;
}

/// `ROPUS-JOURNAL v2 <crc8> base=<N>\n` — the CRC covers `base=<N>`, so a
/// bit flip anywhere in the count is caught, not replayed.
std::string journal_header(std::uint64_t base) {
  std::string body = "base=" + std::to_string(base);
  std::string header;
  header.reserve(kJournalMagic.size() + body.size() + 10);
  header += kJournalMagic;
  header += hex8(crc::crc32(body));
  header += ' ';
  header += body;
  header += '\n';
  return header;
}

std::string profile_name(std::uint32_t digest, std::uint64_t ordinal) {
  return hex8(digest) + '.' + std::to_string(ordinal);
}

/// Parses a profile name `<8hex digest>.<ordinal>`.
bool parse_profile_name(std::string_view name, std::uint32_t& digest,
                        std::uint64_t& ordinal) {
  return name.size() > 9 && name[8] == '.' &&
         parse_hex8(name.substr(0, 8), digest) &&
         parse_u64(name.substr(9), ordinal);
}

/// A profile store record's framed bytes.
void append_record(std::string& out, std::string_view name,
                   std::string_view text) {
  std::string bytes;
  bytes.reserve(name.size() + 1 + text.size());
  bytes += name;
  bytes += ' ';
  bytes += text;
  append_frame(out, bytes);
}

[[noreturn]] void store_error(const std::string& what,
                              const std::filesystem::path& path) {
  throw IoError(what + " profile store " + path.string() + ": " +
                std::strerror(errno));
}

}  // namespace

std::filesystem::path ProfileStore::path_for(
    const std::filesystem::path& checkpoint) {
  std::filesystem::path path = checkpoint;
  path += ".profiles";
  return path;
}

ProfileStore::ProfileStore(std::filesystem::path path)
    : path_(std::move(path)) {
  const std::optional<std::string> file = io::read_file(path_);
  if (!file) return;
  exists_ = true;
  bytes_ = read_frames(*file, 0, [this](std::string_view bytes,
                                        std::size_t frame_bytes) {
    // `<name> <text>`, under a name no earlier record holds and whose
    // digest is its text's: anything else was not written by put().
    const std::size_t sp = bytes.find(' ');
    if (sp == std::string_view::npos) return false;
    Record record;
    record.name = std::string(bytes.substr(0, sp));
    const std::string_view text = bytes.substr(sp + 1);
    if (!parse_profile_name(record.name, record.digest, record.ordinal) ||
        crc::crc32(text) != record.digest ||
        index_of(record.name) != std::string::npos) {
      return false;
    }
    record.text = std::make_shared<const std::string>(text);
    record.frame_bytes = frame_bytes;
    by_digest_.emplace(record.digest, records_.size());
    records_.push_back(std::move(record));
    return true;
  });
  torn_ = bytes_ < file->size();
}

std::size_t ProfileStore::index_of(std::string_view name) const {
  std::uint32_t digest = 0;
  std::uint64_t ordinal = 0;
  if (!parse_profile_name(name, digest, ordinal)) return std::string::npos;
  const auto [lo, hi] = by_digest_.equal_range(digest);
  for (auto it = lo; it != hi; ++it) {
    if (records_[it->second].name == name) return it->second;
  }
  return std::string::npos;
}

std::shared_ptr<const std::string> ProfileStore::find(
    std::string_view name) const {
  const std::size_t i = index_of(name);
  return i == std::string::npos ? nullptr : records_[i].text;
}

void ProfileStore::reindex() {
  by_digest_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    by_digest_.emplace(records_[i].digest, i);
  }
}

std::vector<std::string> ProfileStore::put(const Arbiter& arbiter) {
  const std::size_t known = records_.size();
  std::vector<std::string> names;
  std::string frames;  // the records this call appends
  for (const Arbiter::Profile& profile : arbiter.profiles()) {
    // The same digest is the same profile only when the texts are equal:
    // texts that merely collide get the next ordinal.
    std::uint64_t ordinal = 0;
    std::size_t match = std::string::npos;
    const auto [lo, hi] = by_digest_.equal_range(profile.digest);
    for (auto it = lo; it != hi && match == std::string::npos; ++it) {
      Record& record = records_[it->second];
      if (record.text == profile.text || *record.text == *profile.text) {
        record.text = profile.text;  // one copy, shared with the app
        match = it->second;
      }
      ordinal = std::max(ordinal, record.ordinal + 1);
    }
    if (match == std::string::npos) {
      Record record;
      record.name = profile_name(profile.digest, ordinal);
      record.digest = profile.digest;
      record.ordinal = ordinal;
      record.text = profile.text;
      const std::size_t before = frames.size();
      append_record(frames, record.name, *record.text);
      record.frame_bytes = frames.size() - before;
      match = records_.size();
      by_digest_.emplace(record.digest, match);
      records_.push_back(std::move(record));
    }
    names.push_back(records_[match].name);
  }
  if (!frames.empty()) {
    try {
      append(frames);
    } catch (const IoError&) {
      records_.resize(known);
      reindex();
      throw;
    }
  }
  return names;
}

void ProfileStore::append(const std::string& frames) {
  const bool create = !exists_;
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) store_error("cannot open", path_);
  const auto fail = [&](const char* what) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    torn_ = true;  // a partial write may follow the valid prefix
    store_error(what, path_);
  };
  if (torn_ && ::ftruncate(fd, static_cast<off_t>(bytes_)) != 0) {
    fail("cannot truncate the torn tail of");
  }
  std::size_t off = 0;
  while (off < frames.size()) {
    const ssize_t n = ::pwrite(fd, frames.data() + off, frames.size() - off,
                               static_cast<off_t>(bytes_ + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot append to");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("cannot fsync");
  if (::close(fd) != 0) {
    torn_ = true;
    store_error("cannot close", path_);
  }
  bytes_ += frames.size();
  torn_ = false;
  // A new file's directory entry must reach the disk before a checkpoint
  // that names its records does.
  if (create) io::fsync_parent_dir(path_);
  exists_ = true;
}

bool ProfileStore::collect(const std::vector<std::string>& names) {
  std::vector<bool> named(records_.size(), false);
  std::uint64_t live = 0;
  for (const std::string& name : names) {
    const std::size_t i = index_of(name);
    ROPUS_ASSERT(i != std::string::npos, "collect names a record put made");
    if (!named[i]) live += records_[i].frame_bytes;
    named[i] = true;
  }
  if (bytes_ - live <= live) return false;
  std::string content;
  content.reserve(live);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (named[i]) append_record(content, records_[i].name, *records_[i].text);
  }
  io::write_file_atomic(path_, content);
  std::vector<Record> kept;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (named[i]) kept.push_back(std::move(records_[i]));
  }
  records_ = std::move(kept);
  reindex();
  bytes_ = content.size();
  exists_ = true;
  torn_ = false;
  return true;
}

void write_snapshot(const std::filesystem::path& path, const Arbiter& arbiter,
                    std::uint64_t journal_entries,
                    const std::vector<std::string>& profile_names) {
  json::Writer w;
  w.begin_object();
  w.key("journal_entries");
  w.value(static_cast<std::int64_t>(journal_entries));
  w.key("arbiter");
  arbiter.save_state(w, profile_names);
  w.end_object();
  const std::string payload = std::move(w).str();
  std::string content;
  content.reserve(payload.size() + 64);
  content += kCheckpointMagic;
  content += " len=";
  content += std::to_string(payload.size());
  content += " crc=";
  content += hex8(crc::crc32(payload));
  content += '\n';
  content += payload;
  io::write_file_atomic(path, content);
}

void write_checkpoint(const std::filesystem::path& path,
                      const Arbiter& arbiter, std::uint64_t journal_entries) {
  ProfileStore store(ProfileStore::path_for(path));
  const std::vector<std::string> names = store.put(arbiter);
  write_snapshot(path, arbiter, journal_entries, names);
  store.collect(names);
}

CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter) {
  return load_checkpoint(path, arbiter, nullptr);
}

CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter, const ProfileStore* store) {
  CheckpointLoad result;
  std::optional<std::string> file;
  try {
    file = io::read_file(path);
  } catch (const IoError& e) {
    result.error = e.what();
    return result;
  }
  if (!file) {
    result.missing = true;
    result.error = "no checkpoint file";
    return result;
  }
  const std::string& content = *file;
  const std::size_t nl = content.find('\n');
  if (nl == std::string::npos) {
    result.error = "checkpoint header is truncated";
    return result;
  }
  const std::string_view header(content.data(), nl);
  const bool v2 = header.starts_with(kCheckpointMagicV2);
  if (!v2 && !header.starts_with(kCheckpointMagic)) {
    result.error = "checkpoint magic mismatch";
    return result;
  }
  std::string_view rest = header.substr(kCheckpointMagic.size());
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  {
    if (rest.substr(0, 5) != " len=") {
      result.error = "checkpoint header is malformed";
      return result;
    }
    rest.remove_prefix(5);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string_view::npos || !parse_u64(rest.substr(0, sp), len)) {
      result.error = "checkpoint header is malformed";
      return result;
    }
    rest.remove_prefix(sp);
    if (rest.substr(0, 5) != " crc=" || !parse_hex8(rest.substr(5), crc)) {
      result.error = "checkpoint header is malformed";
      return result;
    }
  }
  const std::string_view payload(content.data() + nl + 1,
                                 content.size() - nl - 1);
  if (payload.size() != len) {
    result.error = "checkpoint payload is truncated";
    return result;
  }
  if (crc::crc32(payload) != crc) {
    result.error = "checkpoint payload fails its checksum";
    return result;
  }
  std::optional<ProfileStore> scanned;
  Arbiter::ProfileResolver resolve;
  if (!v2) {
    try {
      if (store == nullptr) store = &scanned.emplace(ProfileStore::path_for(path));
    } catch (const IoError& e) {
      result.error = e.what();
      return result;
    }
    resolve = [store](const std::string& name) {
      std::shared_ptr<const std::string> text = store->find(name);
      if (text == nullptr) {
        throw IoError("profile '" + name + "' is not in the profile store");
      }
      return text;
    };
  }
  try {
    const json::Value v = json::parse(payload);
    result.journal_entries = json::read_count(v, "journal_entries");
    // Into a fresh arbiter: a payload refused halfway through (a name the
    // store lacks, say) must not leave `arbiter` half restored.
    Arbiter loaded(arbiter.config());
    loaded.load_state(v.at("arbiter"), resolve);
    arbiter = std::move(loaded);
  } catch (const Error& e) {
    result.error = std::string("checkpoint payload is invalid: ") + e.what();
    result.journal_entries = 0;
    return result;
  }
  result.ok = true;
  return result;
}

Journal::Recovered Journal::recover(const std::filesystem::path& path) {
  Recovered r;
  const std::optional<std::string> file = io::read_file(path);
  if (!file) return r;
  const std::string& content = *file;
  std::size_t pos = 0;
  // Optional compaction header. A file that starts with the magic but whose
  // header does not parse (or fails its CRC) is corrupt at offset zero:
  // the base is unknown, so nothing in the file can be indexed. That is
  // flagged as header_corrupt — NOT reported as an empty journal — so
  // recover_state can restore from the covering checkpoint instead of
  // concluding the checkpoint is ahead of a zero-entry journal.
  if (content.compare(0, kJournalMagic.size(), kJournalMagic) == 0) {
    const std::size_t nl = content.find('\n');
    bool ok = nl != std::string::npos;
    std::uint32_t crc = 0;
    std::string_view body;
    if (ok) {
      std::string_view header =
          std::string_view(content).substr(kJournalMagic.size(),
                                           nl - kJournalMagic.size());
      ok = header.size() > 9 && header[8] == ' ' &&
           parse_hex8(header.substr(0, 8), crc);
      if (ok) {
        body = header.substr(9);
        ok = body.substr(0, 5) == "base=" && parse_u64(body.substr(5), r.base) &&
             crc::crc32(body) == crc;
      }
    }
    if (!ok) {
      r.base = 0;
      r.torn_tail = true;
      r.header_corrupt = true;
      return r;
    }
    pos = nl + 1;
  }
  // Anything after the valid frames is a torn tail: keep the prefix, drop
  // the rest.
  r.valid_bytes = read_frames(content, pos,
                              [&r](std::string_view line, std::size_t) {
                                r.lines.emplace_back(line);
                                return true;
                              });
  r.torn_tail = r.valid_bytes < content.size();
  return r;
}

Journal::Journal(const std::filesystem::path& path, std::uint64_t valid_bytes,
                 std::uint64_t entries, std::uint64_t base)
    : path_(path), entries_(entries), base_(base) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (base > 0 && valid_bytes == 0) {
    // Recreating a compacted journal from scratch: the file vanished, or
    // its header was corrupt and recovery fell back to the checkpoint, so
    // no on-disk prefix is worth keeping. Stamp a fresh header carrying
    // the base so the entry arithmetic stays truthful across the next
    // restart (an atomic replace, never a blind truncate-to-zero that
    // would masquerade as a never-compacted v1 journal).
    io::write_file_atomic(path_, journal_header(base));
  } else if (!ec && size > valid_bytes) {
    std::filesystem::resize_file(path_, valid_bytes, ec);
    if (ec) {
      throw IoError("cannot truncate torn journal tail in " + path_.string() +
                    ": " + ec.message());
    }
  }
  open_for_append();
  std::error_code size_ec;
  const auto now = std::filesystem::file_size(path_, size_ec);
  bytes_ = size_ec ? 0 : static_cast<std::uint64_t>(now);
}

void Journal::open_for_append() {
  file_ = std::fopen(path_.string().c_str(), "ab");
  if (file_ == nullptr) {
    throw IoError("cannot open journal " + path_.string() + ": " +
                  std::strerror(errno));
  }
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

void Journal::append(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 32);
  append_frame(framed, line);
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size() ||
      std::fflush(file_) != 0) {
    throw IoError("cannot append to journal " + path_.string() + ": " +
                  std::strerror(errno));
  }
  ++entries_;
  bytes_ += framed.size();
}

std::uint64_t Journal::compact() {
  const std::uint64_t before = bytes_;
  const std::string header = journal_header(entries_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Atomic rename: a crash leaves either the old journal (checkpoint tail
  // replay still works, N <= total) or the new header-only one (checkpoint
  // covers exactly base). write_file_atomic fsyncs the file and the parent
  // directory, so the truncation cannot reorder past the snapshot.
  io::write_file_atomic(path_, header);
  open_for_append();
  base_ = entries_;
  bytes_ = header.size();
  return before > bytes_ ? before - bytes_ : 0;
}

}  // namespace ropus::serve
