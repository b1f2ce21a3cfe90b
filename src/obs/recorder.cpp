#include "obs/recorder.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/file_io.h"
#include "common/json.h"

namespace ropus::obs {

namespace {

// Binary file layout: magic, u32 version, u32 header length, a JSON header
// (self-describing: field list, record size, calendar, app names, counts),
// then fixed-stride little-endian records. See docs/observability.md.
constexpr char kMagic[8] = {'R', 'P', 'F', 'L', 'T', 'R', 'E', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kChunkRecords = 4096;
constexpr const char* kCsvMagic = "# ropus-flight-recording v1";
constexpr const char* kPoolName = "<pool>";

std::atomic<Recorder*> g_active{nullptr};
std::atomic<std::uint64_t> g_epoch{0};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

double get_f64(const unsigned char* p) {
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return std::bit_cast<double>(bits);
}

void put_u16_at(char*& p, std::uint16_t v) {
  *p++ = static_cast<char>(v & 0xFF);
  *p++ = static_cast<char>((v >> 8) & 0xFF);
}

void put_u32_at(char*& p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_f64_at(char*& p, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<char>((bits >> (8 * i)) & 0xFF);
}

/// Serializes through a stack buffer: one string append per record instead
/// of 52 growth-checked push_backs (finish() walks millions of records on
/// long stride-1 runs).
void put_record(std::string& out, const SlotRecord& r) {
  char buf[kRecordBytes];
  char* p = buf;
  put_u32_at(p, r.slot);
  put_u16_at(p, r.app);
  put_u16_at(p, r.section);
  *p++ = static_cast<char>(r.telemetry);
  *p++ = static_cast<char>(r.flags);
  put_u16_at(p, 0);  // reserved
  put_f64_at(p, r.demand);
  put_f64_at(p, r.cos1);
  put_f64_at(p, r.cos2);
  put_f64_at(p, r.granted);
  put_f64_at(p, r.satisfied2);
  out.append(buf, kRecordBytes);
}

SlotRecord get_record(const unsigned char* p) {
  SlotRecord r;
  r.slot = get_u32(p);
  r.app = get_u16(p + 4);
  r.section = get_u16(p + 6);
  r.telemetry = p[8];
  r.flags = p[9];
  r.demand = get_f64(p + 12);
  r.cos1 = get_f64(p + 20);
  r.cos2 = get_f64(p + 28);
  r.granted = get_f64(p + 36);
  r.satisfied2 = get_f64(p + 44);
  return r;
}

/// %.17g round-trips every finite double exactly.
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* telemetry_name(std::uint8_t mark) {
  switch (static_cast<TelemetryMark>(mark)) {
    case TelemetryMark::kNone: return "none";
    case TelemetryMark::kOk: return "ok";
    case TelemetryMark::kStale: return "stale";
    case TelemetryMark::kMissing: return "missing";
    case TelemetryMark::kCorrupt: return "corrupt";
  }
  return "none";
}

std::uint8_t telemetry_from_name(std::string_view name, std::size_t row) {
  if (name == "none") return 0;
  if (name == "ok") return 1;
  if (name == "stale") return 2;
  if (name == "missing") return 3;
  if (name == "corrupt") return 4;
  throw IoError("recording row " + std::to_string(row) +
                ": unknown telemetry mark '" + std::string(name) + "'");
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string read_whole_file(const std::filesystem::path& path) {
  std::optional<std::string> content = io::read_file(path);
  if (!content) throw IoError("cannot open recording: " + path.string());
  return std::move(*content);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

double parse_csv_double(std::string_view field, std::size_t row) {
  const std::string text(field);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw IoError("recording row " + std::to_string(row) +
                  ": malformed number '" + text + "'");
  }
  return v;
}

std::uint64_t parse_csv_uint(std::string_view field, std::size_t row) {
  if (!all_digits(field)) {
    throw IoError("recording row " + std::to_string(row) +
                  ": malformed count '" + std::string(field) + "'");
  }
  return std::strtoull(std::string(field).c_str(), nullptr, 10);
}

}  // namespace

void RecorderConfig::validate() const {
  ROPUS_REQUIRE(!path.empty(), "recording path must not be empty");
  ROPUS_REQUIRE(stride >= 1, "recording stride must be >= 1");
}

RecorderConfig parse_record_spec(std::string_view spec) {
  // Numeric suffixes peel off the right: path[:stride[:ring]]. The path
  // itself keeps any colon followed by a non-numeric segment.
  std::vector<std::string_view> numbers;
  std::string_view rest = spec;
  while (numbers.size() < 2) {
    const std::size_t pos = rest.rfind(':');
    if (pos == std::string_view::npos) break;
    const std::string_view tail = rest.substr(pos + 1);
    if (!all_digits(tail)) break;
    numbers.push_back(tail);
    rest = rest.substr(0, pos);
  }
  std::reverse(numbers.begin(), numbers.end());

  RecorderConfig config;
  config.path = std::filesystem::path(rest);
  if (!numbers.empty()) {
    config.stride = static_cast<std::size_t>(
        std::strtoull(std::string(numbers[0]).c_str(), nullptr, 10));
  }
  if (numbers.size() == 2) {
    config.ring_records = static_cast<std::size_t>(
        std::strtoull(std::string(numbers[1]).c_str(), nullptr, 10));
  }
  if (config.path.extension() == ".csv") {
    config.format = RecorderConfig::Format::kCsv;
  }
  config.validate();
  return config;
}

thread_local Recorder::TlsSlot Recorder::tls_;

Recorder::Recorder(RecorderConfig config)
    : config_(std::move(config)),
      chunk_capacity_(config_.ring_records == 0
                          ? kChunkRecords
                          : std::clamp<std::size_t>(config_.ring_records / 4,
                                                    1, kChunkRecords)),
      max_chunks_(config_.ring_records == 0
                      ? std::numeric_limits<std::size_t>::max()
                      : std::max<std::size_t>(
                            1, (config_.ring_records + chunk_capacity_ - 1) /
                                   chunk_capacity_)),
      epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {
  config_.validate();
}

Recorder::~Recorder() {
  Recorder* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_relaxed);
}

Recorder* Recorder::active() {
  return g_active.load(std::memory_order_relaxed);
}

void Recorder::set_active(Recorder* recorder) {
  g_active.store(recorder, std::memory_order_relaxed);
}

std::uint16_t Recorder::app_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i] == name) return static_cast<std::uint16_t>(i);
  }
  ROPUS_REQUIRE(apps_.size() < kPoolApp, "too many recorded applications");
  apps_.emplace_back(name);
  return static_cast<std::uint16_t>(apps_.size() - 1);
}

void Recorder::set_calendar(double minutes_per_sample,
                            std::size_t slots_per_day) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (minutes_per_sample_ > 0.0) return;  // first declaration wins
  minutes_per_sample_ = minutes_per_sample;
  slots_per_day_ = slots_per_day;
}

bool Recorder::refill(TlsSlot& slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  // finish() freed every chunk, so the slot's pointers may already dangle —
  // clear them before anything below could dereference one.
  if (finished_.load(std::memory_order_relaxed)) {
    slot.owner = nullptr;
    slot.chunk = nullptr;
    slot.records = nullptr;
    return false;
  }
  // Close the chunk this thread is abandoning so the ring may evict it.
  // A slot owned by another (possibly destroyed) recorder is left alone —
  // the pointers may dangle and are simply overwritten below.
  if (slot.owner == this && slot.epoch == epoch_ && slot.chunk != nullptr) {
    slot.chunk->open = false;
  }
  auto chunk = std::make_shared<Chunk>(chunk_capacity_);
  chunks_.push_back(chunk);
  // Ring bound: drop the oldest closed chunks. Open chunks (other threads
  // mid-fill) are skipped so their cursors stay valid; at most one chunk
  // per recording thread can overstay the bound.
  for (auto it = chunks_.begin();
       chunks_.size() > max_chunks_ && it != chunks_.end();) {
    if ((*it)->open) {
      ++it;
      continue;
    }
    dropped_ += (*it)->records.size();
    it = chunks_.erase(it);
  }
  slot.owner = this;
  slot.epoch = epoch_;
  slot.chunk = chunk.get();
  slot.records = &chunk->records;
  return true;
}

void Recorder::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_.load(std::memory_order_relaxed)) return;

  std::size_t count = 0;
  for (const std::shared_ptr<Chunk>& c : chunks_) count += c->records.size();
  const std::uint64_t dropped = dropped_;
  // Publish before freeing the chunks: the recording thread's next append
  // sees the flag (program order) and discards instead of chasing a
  // dangling cursor. Cross-thread appends must already have stopped.
  finished_.store(true, std::memory_order_relaxed);
  const double minutes = minutes_per_sample_ > 0.0 ? minutes_per_sample_ : 5.0;
  const std::size_t slots_per_day =
      slots_per_day_ > 0 ? slots_per_day_ : 288;

  std::string out;
  if (config_.format == RecorderConfig::Format::kBinary) {
    json::Writer header;
    header.begin_object();
    header.key("record_bytes").value(kRecordBytes);
    header.key("stride").value(config_.stride);
    header.key("ring_records").value(config_.ring_records);
    header.key("minutes_per_sample").value(minutes);
    header.key("slots_per_day").value(slots_per_day);
    header.key("records").value(count);
    header.key("dropped").value(static_cast<std::size_t>(dropped));
    header.key("apps").begin_array();
    for (const std::string& app : apps_) header.value(app);
    header.end_array();
    header.key("fields").begin_array();
    for (const char* f : {"slot", "app", "section", "telemetry", "flags",
                          "demand", "cos1", "cos2", "granted", "satisfied2"}) {
      header.value(f);
    }
    header.end_array();
    header.end_object();
    const std::string header_json = header.str();

    out.reserve(16 + header_json.size() + count * kRecordBytes);
    out.append(kMagic, sizeof(kMagic));
    put_u32(out, kVersion);
    put_u32(out, static_cast<std::uint32_t>(header_json.size()));
    out.append(header_json);
    for (const std::shared_ptr<Chunk>& c : chunks_) {
      for (const SlotRecord& r : c->records) put_record(out, r);
    }
  } else {
    std::string body;
    body.reserve(count * 96);
    for (const std::shared_ptr<Chunk>& c : chunks_) {
      for (const SlotRecord& r : c->records) {
        body.append(std::to_string(r.section));
        body.push_back(',');
        body.append(std::to_string(r.slot));
        body.push_back(',');
        body.append(r.app == kPoolApp ? kPoolName
                                      : (r.app < apps_.size()
                                             ? apps_[r.app]
                                             : "app#" + std::to_string(r.app)));
        body.push_back(',');
        body.append(fmt_double(r.demand));
        body.push_back(',');
        body.append(fmt_double(r.cos1));
        body.push_back(',');
        body.append(fmt_double(r.cos2));
        body.push_back(',');
        body.append(fmt_double(r.granted));
        body.push_back(',');
        body.append(fmt_double(r.satisfied2));
        body.push_back(',');
        body.append(telemetry_name(r.telemetry));
        body.push_back(',');
        body.push_back(r.has(SlotRecord::kFallback) ? '1' : '0');
        body.push_back(',');
        body.push_back(r.has(SlotRecord::kFailureMode) ? '1' : '0');
        body.push_back(',');
        body.push_back(r.has(SlotRecord::kUnhosted) ? '1' : '0');
        body.push_back(',');
        body.push_back(r.has(SlotRecord::kOutage) ? '1' : '0');
        body.push_back('\n');
      }
    }
    char meta[256];
    std::snprintf(meta, sizeof(meta),
                  "%s\n# stride=%zu\n# minutes_per_sample=%.17g\n"
                  "# slots_per_day=%zu\n# records=%zu\n# dropped=%" PRIu64
                  "\n",
                  kCsvMagic, config_.stride, minutes, slots_per_day, count,
                  dropped);
    out.append(meta);
    out.append(
        "section,slot,app,demand,cos1,cos2,granted,satisfied2,telemetry,"
        "fallback,failure_mode,unhosted,outage\n");
    out.append(body);
  }

  chunks_.clear();  // free the buffers before the (possibly large) write
  io::write_file_atomic(config_.path, out);
}

std::string Recording::app_name(std::uint16_t id) const {
  if (id == kPoolApp) return kPoolName;
  if (id < apps.size()) return apps[id];
  return "app#" + std::to_string(id);
}

namespace {

Recording read_binary(const std::string& data,
                      const std::filesystem::path& path) {
  if (data.size() < sizeof(kMagic) + 8) {
    throw IoError("recording too short: " + path.string());
  }
  const std::uint32_t version = get_u32(
      reinterpret_cast<const unsigned char*>(data.data()) + sizeof(kMagic));
  if (version != kVersion) {
    throw IoError("unsupported recording version " + std::to_string(version) +
                  ": " + path.string());
  }
  const std::uint32_t header_len = get_u32(
      reinterpret_cast<const unsigned char*>(data.data()) + sizeof(kMagic) +
      4);
  const std::size_t body_start = sizeof(kMagic) + 8 + header_len;
  if (body_start > data.size()) {
    throw IoError("recording header truncated: " + path.string());
  }
  const json::Value header =
      json::parse(std::string_view(data).substr(sizeof(kMagic) + 8,
                                                header_len));

  Recording rec;
  rec.format = RecorderConfig::Format::kBinary;
  rec.stride = static_cast<std::size_t>(header.at("stride").as_number());
  rec.minutes_per_sample = header.at("minutes_per_sample").as_number();
  rec.slots_per_day =
      static_cast<std::size_t>(header.at("slots_per_day").as_number());
  rec.dropped = static_cast<std::uint64_t>(header.at("dropped").as_number());
  for (const json::Value& app : header.at("apps").as_array()) {
    rec.apps.push_back(app.as_string());
  }
  const auto record_bytes =
      static_cast<std::size_t>(header.at("record_bytes").as_number());
  if (record_bytes != kRecordBytes) {
    throw IoError("unsupported record size " + std::to_string(record_bytes) +
                  ": " + path.string());
  }
  const auto count = static_cast<std::size_t>(header.at("records").as_number());
  if (data.size() - body_start != count * kRecordBytes) {
    throw IoError("recording body truncated (header claims " +
                  std::to_string(count) + " records): " + path.string());
  }
  rec.records.reserve(count);
  const auto* p =
      reinterpret_cast<const unsigned char*>(data.data()) + body_start;
  for (std::size_t i = 0; i < count; ++i, p += kRecordBytes) {
    rec.records.push_back(get_record(p));
  }
  return rec;
}

Recording read_csv(const std::string& data,
                   const std::filesystem::path& path) {
  Recording rec;
  rec.format = RecorderConfig::Format::kCsv;
  std::size_t declared = 0;
  bool saw_header_row = false;
  std::size_t row = 0;
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string::npos) end = data.size();
    const std::string_view line(data.data() + start, end - start);
    start = end + 1;
    row += 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) continue;  // the magic banner
      const std::string_view key = line.substr(2, eq - 2);
      const std::string_view value = line.substr(eq + 1);
      if (key == "stride") {
        rec.stride = static_cast<std::size_t>(parse_csv_uint(value, row));
      } else if (key == "minutes_per_sample") {
        rec.minutes_per_sample = parse_csv_double(value, row);
      } else if (key == "slots_per_day") {
        rec.slots_per_day =
            static_cast<std::size_t>(parse_csv_uint(value, row));
      } else if (key == "records") {
        declared = static_cast<std::size_t>(parse_csv_uint(value, row));
      } else if (key == "dropped") {
        rec.dropped = parse_csv_uint(value, row);
      }
      continue;
    }
    if (!saw_header_row) {
      saw_header_row = true;  // column header
      continue;
    }
    const std::vector<std::string_view> fields = split(line, ',');
    if (fields.size() != 13) {
      throw IoError("recording row " + std::to_string(row) + " has " +
                    std::to_string(fields.size()) + " fields, expected 13: " +
                    path.string());
    }
    SlotRecord r;
    r.section = static_cast<std::uint16_t>(parse_csv_uint(fields[0], row));
    r.slot = static_cast<std::uint32_t>(parse_csv_uint(fields[1], row));
    if (fields[2] == kPoolName) {
      r.app = kPoolApp;
    } else {
      const auto it = std::find(rec.apps.begin(), rec.apps.end(), fields[2]);
      if (it == rec.apps.end()) {
        rec.apps.emplace_back(fields[2]);
        r.app = static_cast<std::uint16_t>(rec.apps.size() - 1);
      } else {
        r.app = static_cast<std::uint16_t>(it - rec.apps.begin());
      }
    }
    r.demand = parse_csv_double(fields[3], row);
    r.cos1 = parse_csv_double(fields[4], row);
    r.cos2 = parse_csv_double(fields[5], row);
    r.granted = parse_csv_double(fields[6], row);
    r.satisfied2 = parse_csv_double(fields[7], row);
    r.telemetry = telemetry_from_name(fields[8], row);
    if (fields[9] == "1") r.flags |= SlotRecord::kFallback;
    if (fields[10] == "1") r.flags |= SlotRecord::kFailureMode;
    if (fields[11] == "1") r.flags |= SlotRecord::kUnhosted;
    if (fields[12] == "1") r.flags |= SlotRecord::kOutage;
    rec.records.push_back(r);
  }
  if (rec.records.size() != declared) {
    throw IoError("recording body truncated (header claims " +
                  std::to_string(declared) + " records, found " +
                  std::to_string(rec.records.size()) + "): " + path.string());
  }
  return rec;
}

}  // namespace

Recording read_recording(const std::filesystem::path& path) {
  const std::string data = read_whole_file(path);
  if (data.size() >= sizeof(kMagic) &&
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    return read_binary(data, path);
  }
  if (data.rfind(kCsvMagic, 0) == 0) {
    return read_csv(data, path);
  }
  throw IoError("not a flight recording (bad magic): " + path.string());
}

}  // namespace ropus::obs
