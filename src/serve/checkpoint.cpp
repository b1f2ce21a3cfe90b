#include "serve/checkpoint.h"

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

// v2 payloads carry the app-id/departure/id-cache state; a v1 checkpoint
// lacks those fields, so the magic rejects it up front instead of letting
// the payload parse fail halfway through.
constexpr std::string_view kCheckpointMagic = "ROPUS-CHECKPOINT v2";
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

}  // namespace

void write_checkpoint(const std::filesystem::path& path,
                      const Arbiter& arbiter, std::uint64_t journal_entries) {
  json::Writer w;
  w.begin_object();
  w.key("journal_entries");
  w.value(static_cast<std::int64_t>(journal_entries));
  w.key("arbiter");
  arbiter.save_state(w);
  w.end_object();
  const std::string payload = w.str();
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

CheckpointLoad load_checkpoint(const std::filesystem::path& path,
                               Arbiter& arbiter) {
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
  if (header.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
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
  try {
    const json::Value v = json::parse(payload);
    result.journal_entries = json::read_count(v, "journal_entries");
    arbiter.load_state(v.at("arbiter"));
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
    r.valid_bytes = pos;
  }
  while (pos < content.size()) {
    // Frame: `<8hex crc> <len> <line>\n`. Anything that does not parse, or
    // whose CRC fails, marks a torn tail: keep the prefix, drop the rest.
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
    const std::string_view line(content.data() + body, len);
    if (crc::crc32(line) != crc) break;
    r.lines.emplace_back(line);
    pos = body + len + 1;
    r.valid_bytes = pos;
  }
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
  framed += hex8(crc::crc32(line));
  framed += ' ';
  framed += std::to_string(line.size());
  framed += ' ';
  framed += line;
  framed += '\n';
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
