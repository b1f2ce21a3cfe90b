// Durability layer: the CRC-framed journal survives torn tails and
// flipped bytes, checkpoints round-trip the arbiter exactly, the profile
// store beside them writes each profile once and resolves every name to
// its own bytes, and a corrupt checkpoint is refused without touching the
// live state.
#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "common/json.h"
#include "serve/arbiter.h"

namespace ropus::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWeekSlots = 7 * 24;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus_checkpoint_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

ServeConfig small_config() {
  ServeConfig config;
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 2;
  config.server_cpus = 8.0;
  return config;
}

void append_raw(const fs::path& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// An admission of `app` with a flat one-week profile at `level`.
std::string flat_admit(const std::string& app, const std::string& level) {
  std::string line = R"({"type":"admit","app":")" + app + R"(","profile":[)";
  for (std::size_t i = 0; i < kWeekSlots; ++i) {
    if (i > 0) line += ',';
    line += level;
  }
  return line + "]}";
}

std::string read_all(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), {}};
}

Arbiter seeded_arbiter(const ServeConfig& config) {
  Arbiter arbiter(config);
  arbiter.handle(parse_message(flat_admit("web", "1.5")));
  arbiter.handle(parse_message(R"({"type":"tick","slot":0,"demand":{"web":1.2}})"));
  arbiter.handle(parse_message(R"({"type":"tick","slot":1,"demand":{"web":1.9}})"));
  return arbiter;
}

TEST_F(CheckpointTest, JournalRecoverOnMissingFileIsEmpty) {
  const Journal::Recovered r = Journal::recover((dir_ / "none.journal").string());
  EXPECT_TRUE(r.lines.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(CheckpointTest, UnreadableJournalOrCheckpointIsAnErrorNotATornTail) {
  // A directory in the journal's place opens but cannot be read. Recovery
  // refuses it instead of taking the failed read for a torn tail (which
  // the Journal constructor would then truncate), and leaves it alone.
  const fs::path path = dir_ / "a.journal";
  fs::create_directory(path);
  fs::create_directory(path / "inside");
  EXPECT_THROW(Journal::recover(path), IoError);
  EXPECT_TRUE(fs::is_directory(path / "inside"));

  // The same checkpoint is reported, not mistaken for a missing one.
  Arbiter arbiter(small_config());
  const CheckpointLoad load = load_checkpoint(path, arbiter);
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.missing);
  EXPECT_NE(load.error.find("cannot read"), std::string::npos) << load.error;
}

TEST_F(CheckpointTest, JournalAppendRecoverRoundTrip) {
  const std::string path = (dir_ / "a.journal").string();
  const std::vector<std::string> lines = {
      R"({"type":"tick","slot":0,"demand":{}})",
      R"({"type":"admit","app":"x"})",
      "plain text with spaces",
  };
  {
    Journal journal(path, 0, 0);
    for (const std::string& line : lines) journal.append(line);
    EXPECT_EQ(journal.entries(), lines.size());
  }
  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.lines, lines);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, fs::file_size(path));
}

TEST_F(CheckpointTest, TornTailDetectedAndTruncatedOnReopen) {
  const std::string path = (dir_ / "torn.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("first");
    journal.append("second");
  }
  // A crash mid-append leaves a partial frame at the tail.
  append_raw(path, "deadbeef 17 half-writ");
  Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"first", "second"}));
  EXPECT_TRUE(r.torn_tail);
  EXPECT_LT(r.valid_bytes, fs::file_size(path));

  // Reopening for append truncates the tail and continues cleanly.
  {
    Journal journal(path, r.valid_bytes, r.lines.size());
    journal.append("third");
    EXPECT_EQ(journal.entries(), 3u);
  }
  r = Journal::recover(path);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(CheckpointTest, WrappingLengthFieldIsATornTailNotACrash) {
  const std::string path = (dir_ / "wrap.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("good");
  }
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::size_t newline_at = bytes.find('\n');
  ASSERT_NE(newline_at, std::string::npos);
  // Craft a tail frame whose length field wraps `body + len` around 2^64
  // to land exactly on the first frame's newline: naive bounds arithmetic
  // passes both the size and newline checks and crc32 then walks ~2^64
  // bytes off the end of the buffer. Must be classified as a torn tail.
  const std::size_t body = bytes.size() + 9 /* "deadbeef " */ + 20 + 1;
  const std::uint64_t wrap_len = static_cast<std::uint64_t>(newline_at) -
                                 static_cast<std::uint64_t>(body);
  ASSERT_EQ(std::to_string(wrap_len).size(), 20u);
  append_raw(path, "deadbeef " + std::to_string(wrap_len) + " ");

  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"good"}));
  EXPECT_TRUE(r.torn_tail);
}

TEST_F(CheckpointTest, LengthConsumingTheWholeTailIsTornNotOverread) {
  const std::string path = (dir_ / "exact.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("good");
  }
  // Claimed length reaches exactly the end of the file, leaving no byte
  // for the trailing newline: torn, and content[body + len] must never be
  // evaluated.
  append_raw(path, "deadbeef 4 abcd");
  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"good"}));
  EXPECT_TRUE(r.torn_tail);
}

TEST_F(CheckpointTest, FlippedByteStopsRecoveryAtTheDamage) {
  const std::string path = (dir_ / "flip.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("aaaa");
    journal.append("bbbb");
    journal.append("cccc");
  }
  // Flip one byte inside the second frame's body: its CRC no longer
  // matches, so recovery keeps only the first entry.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::size_t pos = bytes.find("bbbb");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'X';
  fs::remove(path);
  append_raw(path, bytes);

  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"aaaa"}));
  EXPECT_TRUE(r.torn_tail);
}

TEST_F(CheckpointTest, CheckpointRoundTripRestoresTheArbiter) {
  const std::string path = (dir_ / "state.ckpt").string();
  const ServeConfig config = small_config();
  Arbiter original = seeded_arbiter(config);
  write_checkpoint(path, original, 3);

  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.journal_entries, 3u);
  EXPECT_EQ(restored.next_slot(), original.next_slot());
  EXPECT_EQ(restored.app_count(), original.app_count());
  EXPECT_EQ(restored.summary(), original.summary());

  // Continued streams agree byte for byte.
  const Message next = parse_message(
      R"({"type":"tick","slot":2,"demand":{"web":0.7}})");
  EXPECT_EQ(original.handle(next), restored.handle(next));
}

TEST_F(CheckpointTest, CorruptCheckpointRefusedWithoutTouchingState) {
  const std::string path = (dir_ / "bad.ckpt").string();
  const ServeConfig config = small_config();
  Arbiter original = seeded_arbiter(config);
  write_checkpoint(path, original, 3);

  // Truncated payload: CRC/length no longer match the header.
  fs::resize_file(path, fs::file_size(path) / 2);
  Arbiter victim(config);
  CheckpointLoad load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.error.empty());
  EXPECT_EQ(victim.next_slot(), 0u);
  EXPECT_EQ(victim.app_count(), 0u);

  // Garbage header: the magic matches but the length/CRC lie.
  fs::remove(path);
  append_raw(path, "ROPUS-CHECKPOINT v2 len=999 crc=deadbeef\n{\"garbage\":");
  load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);

  // A v1-era checkpoint predates the app-id/id-cache state and must be
  // refused at the magic, not half-parsed.
  fs::remove(path);
  append_raw(path, "ROPUS-CHECKPOINT v1 len=2 crc=00000000\n{}");
  load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("magic"), std::string::npos);

  // Missing file.
  load = load_checkpoint((dir_ / "absent.ckpt").string(), victim);
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(victim.next_slot(), 0u);
}

/// Reads the checkpoint at `path`, lets `edit` rewrite its payload, and
/// writes it back framed under the edited payload's own length and CRC: a
/// well-formed file whose content lies.
void reframe(const fs::path& path,
             const std::function<void(std::string&)>& edit) {
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  std::string payload = bytes.substr(bytes.find('\n') + 1);
  edit(payload);
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x", crc::crc32(payload));
  fs::remove(path);
  append_raw(path, "ROPUS-CHECKPOINT v3 len=" +
                       std::to_string(payload.size()) + " crc=" + crc + "\n" +
                       payload);
}

/// Sets the first `field` at or after offset `from` of `payload` to the
/// JSON text `value`.
void set_field(std::string& payload, const std::string& field,
               const std::string& value, std::size_t from = 0) {
  const std::size_t key = payload.find("\"" + field + "\":", from);
  ASSERT_NE(key, std::string::npos) << field;
  const std::size_t begin = key + field.size() + 3;
  payload.replace(begin, payload.find(',', begin) - begin, value);
}

/// Sets `field` of the saved app named `app` to the JSON text `value`.
void set_app_field(std::string& payload, const std::string& app,
                   const std::string& field, const std::string& value) {
  const std::size_t record = payload.find("\"name\":\"" + app + "\"");
  ASSERT_NE(record, std::string::npos) << app;
  set_field(payload, field, value, record);
}

/// Sets the first `field` of the saved backlogs to the JSON scalar `value`.
void set_backlog_field(std::string& payload, const std::string& field,
                       const std::string& value) {
  const std::size_t key =
      payload.find("\"" + field + "\":", payload.find("\"backlogs\":"));
  ASSERT_NE(key, std::string::npos) << field;
  const std::size_t begin = key + field.size() + 3;
  payload.replace(begin, payload.find_first_of(",}]", begin) - begin, value);
}

TEST_F(CheckpointTest, CraftedAppIdentityIsRefused) {
  const std::string path = (dir_ / "crafted.ckpt").string();
  const ServeConfig config = small_config();  // 2 servers
  Arbiter original = seeded_arbiter(config);
  std::string profile = "2.0";
  for (std::size_t i = 1; i < kWeekSlots; ++i) profile += ",2.0";
  original.handle(parse_message(
      R"({"type":"admit","app":"db","profile":[)" + profile + "]}"));
  ASSERT_EQ(original.app_count(), 2u);  // web has id 0, db id 1
  // A third app with a one-slot spike, sized for its peak (M = 100), fits
  // only beside web, and its first tick requests that peak: 3 CPUs for web
  // and 5.8 for it on an 8-CPU server, so the checkpoint carries a
  // deferral. Its revenue outweighs the penalty for the thin headroom.
  std::string burst = "2.0,2.0,2.9";
  for (std::size_t i = 3; i < kWeekSlots; ++i) burst += ",2.0";
  original.handle(parse_message(
      R"({"type":"admit","app":"burst","m":100,"revenue":10,"profile":[)" +
      burst + "]}"));
  original.handle(parse_message(
      R"({"type":"tick","slot":2,"demand":{"web":1.0,"db":1.0,"burst":2.9}})"));
  ASSERT_EQ(original.app_count(), 3u);
  ASSERT_GT(original.backlog_total(), 0.0);

  // The re-framing itself is sound: an untouched payload still loads.
  write_checkpoint(path, original, 4);
  reframe(path, [](std::string&) {});
  Arbiter control(config);
  ASSERT_TRUE(load_checkpoint(path, control).ok);

  const std::vector<std::pair<const char*, std::function<void(std::string&)>>>
      faults = {
          {"host outside the pool",
           [](std::string& p) { set_app_field(p, "web", "host", "7"); }},
          {"repeated id",
           [](std::string& p) { set_app_field(p, "db", "id", "0"); }},
          {"id never handed out",
           [](std::string& p) { set_app_field(p, "db", "id", "5"); }},
          {"repeated name",
           [](std::string& p) { set_app_field(p, "db", "name", "\"web\""); }},
          {"negative count",
           [](std::string& p) { set_field(p, "departed", "-1"); }},
          // Each would load, with a journal entry count that wrapped,
          // truncated or overflowed its cast.
          {"negative journal entries",
           [](std::string& p) { set_field(p, "journal_entries", "-1"); }},
          {"fractional journal entries",
           [](std::string& p) { set_field(p, "journal_entries", "2.5"); }},
          {"journal entries beyond a count",
           [](std::string& p) { set_field(p, "journal_entries", "1e300"); }},
          {"next id beyond the id space",
           [](std::string& p) { set_field(p, "next_app_id", "65535"); }},
          // Both would load and then throw out of the next tick.
          {"negative controller history",
           [](std::string& p) { set_app_field(p, "web", "history", "[-1]"); }},
          {"negative controller basis",
           [](std::string& p) { set_app_field(p, "db", "last_basis", "-1"); }},
          // A later tick would index the watchdog's alerts with these.
          {"dangling open overcommit alert",
           [](std::string& p) {
             set_field(p, "open_overcommit", "40000000",
                       p.find("\"watchdog\":"));
           }},
          {"dangling open T_degr alert",
           [](std::string& p) {
             set_field(p, "open_tdegr", "7", p.find("\"watchdog\":"));
           }},
          {"negative watchdog count",
           [](std::string& p) {
             set_field(p, "run", "-1", p.find("\"watchdog\":"));
           }},
          // A tick for slot 100 would re-emit stale replies, and the next
          // one would fill the slots in between as missing telemetry.
          {"last tick slot not the one before next_slot",
           [](std::string& p) { set_field(p, "last_tick_slot", "100"); }},
          {"ticks recorded as never seen",
           [](std::string& p) { set_field(p, "any_tick", "false"); }},
          // A drain would serve -5 CPUs and hand 5 back to the spare.
          {"negative deferred remainder",
           [](std::string& p) { set_backlog_field(p, "remaining", "-5"); }},
          {"deferred remainder retired by drain",
           [](std::string& p) { set_backlog_field(p, "remaining", "0"); }},
          {"deferral from a slot not yet judged",
           [](std::string& p) { set_backlog_field(p, "created", "3"); }},
          {"deferrals out of creation order",
           [](std::string& p) {
             const std::string entries = "\"entries\":[";
             const std::size_t at =
                 p.find(entries + "{", p.find("\"backlogs\":"));
             ASSERT_NE(at, std::string::npos);
             p.insert(at + entries.size(), R"({"created":2,"remaining":1},)");
           }},
          {"negative backlog total",
           [](std::string& p) { set_backlog_field(p, "total", "-1"); }},
      };
  for (const auto& [what, edit] : faults) {
    write_checkpoint(path, original, 4);
    reframe(path, edit);
    Arbiter victim(config);
    const CheckpointLoad load = load_checkpoint(path, victim);
    EXPECT_FALSE(load.ok) << what;
    EXPECT_NE(load.error.find("invalid"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, CompactDropsFramesButKeepsTheEntryCount) {
  const std::string path = (dir_ / "compact.journal").string();
  Journal journal(path, 0, 0);
  journal.append("one");
  journal.append("two");
  journal.append("three");
  const std::uint64_t before = fs::file_size(path);

  const std::uint64_t reclaimed = journal.compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(journal.entries(), 3u);  // compacted entries still count
  EXPECT_LT(fs::file_size(path), before);
  EXPECT_EQ(journal.bytes(), fs::file_size(path));

  Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.base, 3u);
  EXPECT_TRUE(r.lines.empty());
  EXPECT_EQ(r.entries(), 3u);
  EXPECT_FALSE(r.torn_tail);

  // The journal keeps accepting frames after its header.
  journal.append("four");
  journal.append("five");
  EXPECT_EQ(journal.entries(), 5u);
  r = Journal::recover(path);
  EXPECT_EQ(r.base, 3u);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"four", "five"}));
  EXPECT_EQ(r.entries(), 5u);
}

TEST_F(CheckpointTest, CompactedJournalReopensWithItsBase) {
  const std::string path = (dir_ / "reopen.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("a");
    journal.append("b");
    journal.compact();
    journal.append("c");
  }
  Journal::Recovered r = Journal::recover(path);
  ASSERT_EQ(r.base, 2u);
  ASSERT_EQ(r.lines, (std::vector<std::string>{"c"}));
  {
    Journal journal(path, r.valid_bytes, r.entries(), r.base);
    EXPECT_EQ(journal.entries(), 3u);
    journal.append("d");
  }
  r = Journal::recover(path);
  EXPECT_EQ(r.base, 2u);
  EXPECT_EQ(r.lines, (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(r.entries(), 4u);
}

TEST_F(CheckpointTest, RepeatedCompactionAdvancesTheBase) {
  const std::string path = (dir_ / "repeat.journal").string();
  Journal journal(path, 0, 0);
  journal.append("a");
  journal.compact();
  journal.append("b");
  journal.append("c");
  journal.compact();
  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.base, 3u);
  EXPECT_TRUE(r.lines.empty());
  // Steady state: the file holds exactly one header, nothing else.
  EXPECT_EQ(fs::file_size(path), journal.bytes());
}

TEST_F(CheckpointTest, DamagedCompactionHeaderIsTornAtOffsetZero) {
  const std::string path = (dir_ / "damaged.journal").string();
  {
    Journal journal(path, 0, 0);
    journal.append("x");
    journal.compact();
  }
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  // Corrupt the base digits: the header CRC no longer matches, so the
  // whole file is untrusted (base unknown = nothing is replayable).
  const std::size_t pos = bytes.find("base=");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 5] = '9';
  fs::remove(path);
  append_raw(path, bytes);

  const Journal::Recovered r = Journal::recover(path);
  EXPECT_EQ(r.base, 0u);
  EXPECT_TRUE(r.lines.empty());
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, 0u);
}

TEST_F(CheckpointTest, CheckpointOverwriteIsAtomicReplacement) {
  const std::string path = (dir_ / "latest.ckpt").string();
  const ServeConfig config = small_config();
  Arbiter arbiter = seeded_arbiter(config);
  write_checkpoint(path, arbiter, 3);
  arbiter.handle(parse_message(
      R"({"type":"tick","slot":2,"demand":{"web":2.2}})"));
  write_checkpoint(path, arbiter, 4);

  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.journal_entries, 4u);
  EXPECT_EQ(restored.next_slot(), 3u);
}

/// The store's name for the `ordinal`-th text with `profile`'s digest.
std::string store_name(const Arbiter::Profile& profile, int ordinal) {
  char name[24];
  std::snprintf(name, sizeof name, "%08x.%d", profile.digest, ordinal);
  return name;
}

/// `bytes` framed as one journal line or profile store record.
std::string frame(const std::string& bytes) {
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x", crc::crc32(bytes));
  return std::string(crc) + " " + std::to_string(bytes.size()) + " " + bytes +
         "\n";
}

TEST_F(CheckpointTest, ProfileStoreWritesEachProfileOnce) {
  const fs::path path = dir_ / "state.ckpt";
  const fs::path store = ProfileStore::path_for(path);
  const ServeConfig config = small_config();
  Arbiter arbiter = seeded_arbiter(config);
  write_checkpoint(path, arbiter, 3);
  const std::string checkpoint = read_all(path);
  EXPECT_EQ(checkpoint.rfind("ROPUS-CHECKPOINT v3 ", 0), 0u);
  EXPECT_EQ(checkpoint.find("[1.5,"), std::string::npos)
      << "the checkpoint carries a profile";
  const std::uint64_t stored = fs::file_size(store);
  EXPECT_GT(stored, 168u * 4);

  // Later checkpoints append nothing: not for the same app, and not for a
  // departed app admitted again with the same profile under a new id.
  arbiter.handle(parse_message(R"({"type":"tick","slot":2,"demand":{"web":0.7}})"));
  write_checkpoint(path, arbiter, 4);
  arbiter.handle(parse_message(R"({"type":"depart","app":"web"})"));
  arbiter.handle(parse_message(flat_admit("web", "1.5")));
  arbiter.handle(parse_message(flat_admit("copy", "1.5")));
  write_checkpoint(path, arbiter, 7);
  EXPECT_EQ(fs::file_size(store), stored);

  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(restored.summary(), arbiter.summary());
  // Both apps share the one stored text.
  ASSERT_EQ(restored.profiles().size(), 2u);
  EXPECT_EQ(restored.profiles()[0].text, restored.profiles()[1].text);
  EXPECT_EQ(*restored.profiles()[0].text, *arbiter.profiles()[0].text);
}

TEST_F(CheckpointTest, ProfileNameTheStoreLacksMakesTheCheckpointUnusable) {
  const fs::path path = dir_ / "dangling.ckpt";
  const ServeConfig config = small_config();
  Arbiter original = seeded_arbiter(config);

  // A crafted v3 checkpoint, well framed, naming a profile never stored.
  write_checkpoint(path, original, 3);
  reframe(path, [](std::string& p) {
    set_app_field(p, "web", "profile", "\"deadbeef.0\"");
  });
  Arbiter victim(config);
  CheckpointLoad load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("not in the profile store"), std::string::npos)
      << load.error;
  EXPECT_EQ(victim.app_count(), 0u);

  // The same for a checkpoint whose store is gone.
  write_checkpoint(path, original, 3);
  fs::remove(ProfileStore::path_for(path));
  load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("not in the profile store"), std::string::npos)
      << load.error;
  EXPECT_EQ(victim.app_count(), 0u);
}

TEST_F(CheckpointTest, TornStoreTailKeepsTheValidPrefix) {
  const fs::path path = dir_ / "torn.ckpt";
  const fs::path store = ProfileStore::path_for(path);
  const ServeConfig config = small_config();
  Arbiter arbiter = seeded_arbiter(config);
  write_checkpoint(path, arbiter, 3);

  // A crash mid-append leaves a partial record after web's: web resolves.
  append_raw(store, "0badf00d 9999 0badf00d.0 [2.5,2.5");
  EXPECT_LT(ProfileStore(store).bytes(), fs::file_size(store));
  Arbiter restored(config);
  CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(restored.summary(), arbiter.summary());

  // The next checkpoint cuts the tail before it appends.
  arbiter.handle(parse_message(flat_admit("db", "2.5")));
  write_checkpoint(path, arbiter, 4);
  EXPECT_EQ(ProfileStore(store).bytes(), fs::file_size(store));
  Arbiter second(config);
  load = load_checkpoint(path, second);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(second.summary(), arbiter.summary());

  // A tail torn inside a named record leaves that name dangling.
  fs::resize_file(store, fs::file_size(store) - 10);
  Arbiter victim(config);
  load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(victim.app_count(), 0u);
}

TEST_F(CheckpointTest, StoreRecordNotMatchingItsNameIsRefused) {
  const fs::path path = dir_ / "mismatch.ckpt";
  const fs::path store = ProfileStore::path_for(path);
  const ServeConfig config = small_config();
  Arbiter original = seeded_arbiter(config);
  write_checkpoint(path, original, 3);
  const std::string name = store_name(original.profiles()[0], 0);
  ASSERT_NE(read_all(path).find("\"" + name + "\""), std::string::npos);
  ASSERT_NE(ProfileStore(store).find(name), nullptr);

  // Same name, other text, and a frame whose own CRC holds: not a torn
  // write but a record put() never writes.
  std::string other = *original.profiles()[0].text;
  other[1] = '2';  // [1.5,... becomes [2.5,...
  fs::remove(store);
  append_raw(store, frame(name + " " + other));
  EXPECT_EQ(ProfileStore(store).find(name), nullptr);
  EXPECT_EQ(ProfileStore(store).bytes(), 0u);

  Arbiter victim(config);
  const CheckpointLoad load = load_checkpoint(path, victim);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("not in the profile store"), std::string::npos)
      << load.error;
  EXPECT_EQ(victim.app_count(), 0u);
}

/// `text` with bit 0 flipped at a subset of its digit positions chosen so
/// that the CRC-32 is unchanged: CRC-32 is affine in the message bits, so
/// any 33 flips hold a subset whose CRC changes cancel. Flipping bit 0
/// keeps a digit a digit; positions are the digits of `1.234` in each
/// `1.2345`, so every number stays the shortest text of its value.
std::string crc_twin(const std::string& text) {
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i + 6 <= text.size() && positions.size() < 48; ++i) {
    if (text.compare(i, 6, "1.2345") == 0) {
      for (const std::size_t at : {i, i + 2, i + 3, i + 4}) {
        positions.push_back(at);
      }
    }
  }
  // Gaussian elimination over GF(2): basis[b] has top bit b and records
  // which flips it combines.
  const std::uint32_t base = crc::crc32(text);
  std::vector<std::pair<std::uint32_t, std::vector<bool>>> basis(32);
  std::vector<bool> have(32, false);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    std::string flipped = text;
    flipped[positions[k]] ^= 1;
    std::uint32_t v = crc::crc32(flipped) ^ base;
    std::vector<bool> combo(positions.size(), false);
    combo[k] = true;
    for (std::size_t b = 32; b-- > 0 && v != 0;) {
      if ((v >> b & 1u) == 0) continue;
      if (!have[b]) {
        basis[b] = {v, combo};
        have[b] = true;
        v = 0;
        combo.clear();
        break;
      }
      v ^= basis[b].first;
      for (std::size_t j = 0; j < combo.size(); ++j) {
        combo[j] = combo[j] != basis[b].second[j];
      }
    }
    if (!combo.empty()) {
      std::string twin = text;
      for (std::size_t j = 0; j < combo.size(); ++j) {
        if (combo[j]) twin[positions[j]] ^= 1;
      }
      return twin;
    }
  }
  ADD_FAILURE() << "no CRC-preserving flips found";
  return text;
}

TEST_F(CheckpointTest, CollidingDigestsNeverRestoreEachOthersBytes) {
  const fs::path path = dir_ / "collide.ckpt";
  const ServeConfig config = small_config();
  Arbiter original(config);
  original.handle(parse_message(flat_admit("first", "1.2345")));
  ASSERT_EQ(original.app_count(), 1u);
  const std::string& first = *original.profiles()[0].text;
  const std::string second = crc_twin(first);
  ASSERT_NE(second, first);
  ASSERT_EQ(crc::crc32(second), crc::crc32(first));
  original.handle(parse_message(
      R"({"type":"admit","app":"second","profile":)" + second + "}"));
  ASSERT_EQ(original.app_count(), 2u);
  // The arbiter printed the twin back byte for byte: same digest, two texts.
  ASSERT_EQ(*original.profiles()[1].text, second);
  ASSERT_EQ(original.profiles()[0].digest, original.profiles()[1].digest);

  write_checkpoint(path, original, 2);
  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  ASSERT_EQ(restored.profiles().size(), 2u);
  EXPECT_EQ(*restored.profiles()[0].text, first);
  EXPECT_EQ(*restored.profiles()[1].text, second);
  EXPECT_EQ(restored.summary(), original.summary());
  const Message next = parse_message(
      R"({"type":"tick","slot":0,"demand":{"first":2.0,"second":2.0}})");
  EXPECT_EQ(restored.handle(next), original.handle(next));

  // Stored once each, under two names, and found again by the next
  // checkpoint.
  const std::string checkpoint = read_all(path);
  EXPECT_NE(checkpoint.find("\"" + store_name(original.profiles()[0], 0) + "\""),
            std::string::npos);
  EXPECT_NE(checkpoint.find("\"" + store_name(original.profiles()[1], 1) + "\""),
            std::string::npos);
  const std::uint64_t stored = fs::file_size(ProfileStore::path_for(path));
  write_checkpoint(path, restored, 3);
  EXPECT_EQ(fs::file_size(ProfileStore::path_for(path)), stored);
}

TEST_F(CheckpointTest, StoreIsRewrittenOnlyWhenDeadBytesOutweighLive) {
  const fs::path path = dir_ / "collect.ckpt";
  const fs::path store = ProfileStore::path_for(path);
  const ServeConfig config = small_config();
  Arbiter arbiter(config);
  arbiter.handle(parse_message(flat_admit("a", "1.25")));
  arbiter.handle(parse_message(flat_admit("b", "1.75")));
  arbiter.handle(parse_message(flat_admit("c", "2.25")));
  ASSERT_EQ(arbiter.app_count(), 3u);
  write_checkpoint(path, arbiter, 3);
  const std::uint64_t three = fs::file_size(store);

  // One dead record of three: kept.
  arbiter.handle(parse_message(R"({"type":"depart","app":"b"})"));
  write_checkpoint(path, arbiter, 4);
  EXPECT_EQ(fs::file_size(store), three);

  // Two dead of three: the store keeps only what the checkpoint names.
  arbiter.handle(parse_message(R"({"type":"depart","app":"c"})"));
  write_checkpoint(path, arbiter, 5);
  EXPECT_EQ(fs::file_size(store), three / 3);
  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(restored.summary(), arbiter.summary());

  // A departed profile admitted again is appended again.
  arbiter.handle(parse_message(flat_admit("b", "1.75")));
  write_checkpoint(path, arbiter, 6);
  EXPECT_EQ(fs::file_size(store), 2 * three / 3);
}

TEST_F(CheckpointTest, V2CheckpointWithInlineProfilesStillLoads) {
  // Written by the v2 writer from these lines under small_config(), before
  // profiles moved into the store: a daemon whose journal was compacted
  // into it must come back on the v3 build.
  const auto profile = [](double (*level)(std::size_t)) {
    std::string p;
    for (std::size_t i = 0; i < kWeekSlots; ++i) {
      if (i > 0) p += ',';
      p += std::to_string(level(i));
    }
    return p;
  };
  const std::vector<std::string> lines = {
      R"({"type":"admit","app":"web","tdegr":120,"profile":[)" +
          profile([](std::size_t) { return 1.5; }) + "]}",
      R"({"type":"admit","app":"db","revenue":1.75,"profile":[)" +
          profile([](std::size_t i) {
            return 1.0 + 0.25 * static_cast<double>(i % 7);
          }) +
          "]}",
      R"({"type":"tick","slot":0,"demand":{"web":1.2,"db":1.8}})",
      R"({"type":"admit","app":"tmp","id":"admit-tmp","profile":[)" +
          profile([](std::size_t) { return 0.5; }) + "]}",
      R"({"type":"tick","slot":1,"demand":{"web":1.9,"db":0.4,"tmp":0.3}})",
      R"({"type":"depart","app":"tmp"})",
      R"({"type":"tick","slot":2,"demand":{"web":0.8,"db":2.2}})",
  };
  const ServeConfig config = small_config();
  Arbiter reference(config);
  for (const std::string& line : lines) reference.handle(parse_message(line));

  const fs::path v2 = fs::path(ROPUS_SERVE_TESTDATA) / "checkpoint_v2.ckpt";
  ASSERT_EQ(read_all(v2).rfind("ROPUS-CHECKPOINT v2 ", 0), 0u);
  Arbiter restored(config);
  const CheckpointLoad load = load_checkpoint(v2, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.journal_entries, lines.size());
  EXPECT_EQ(restored.summary(), reference.summary());
  EXPECT_FALSE(fs::exists(ProfileStore::path_for(v2)));

  // The id cache came along, and the next checkpoint is a v3 one.
  const Message retry = parse_message(lines[3]);
  EXPECT_EQ(restored.handle(retry), reference.handle(retry));
  const fs::path path = dir_ / "upgraded.ckpt";
  write_checkpoint(path, restored, lines.size());
  EXPECT_EQ(read_all(path).rfind("ROPUS-CHECKPOINT v3 ", 0), 0u);
  Arbiter upgraded(config);
  ASSERT_TRUE(load_checkpoint(path, upgraded).ok);
  const Message next = parse_message(
      R"({"type":"tick","slot":3,"demand":{"web":1.0,"db":1.0}})");
  EXPECT_EQ(upgraded.handle(next), reference.handle(next));
  EXPECT_EQ(upgraded.summary(), reference.summary());
}

}  // namespace
}  // namespace ropus::serve
