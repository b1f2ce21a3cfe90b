// Recovery interleaving matrix: every crash point the persistence layer
// can be killed at — after a journal append, after a snapshot, after the
// compaction truncate, mid-truncate — crossed with every persistence
// configuration (journal-only, checkpoint-only, both). Each cell is built
// as the exact file state that crash leaves behind, recovered through
// recover_state, and the survivor must continue byte-identically with an
// undisturbed reference arbiter (or, where entries are legitimately lost,
// match the documented loss). The profile store's own crash windows —
// after its append, mid-append, mid-rewrite — and its loss follow.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"

namespace ropus::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWeekSlots = 7 * 24;

ServeConfig small_config() {
  ServeConfig config;
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 2;
  config.server_cpus = 8.0;
  return config;
}

std::string admit_line(const std::string& app, double level) {
  std::string profile = std::to_string(level);
  for (std::size_t i = 1; i < kWeekSlots; ++i) {
    profile += ',';
    profile += std::to_string(level);
  }
  return R"({"type":"admit","app":")" + app + R"(","profile":[)" + profile +
         "]}";
}

std::string tick_line(std::size_t slot, double web, double db) {
  std::string line = R"({"type":"tick","slot":)";
  line += std::to_string(slot);
  line += R"(,"demand":{"web":)";
  line += std::to_string(web);
  line += R"(,"db":)";
  line += std::to_string(db);
  line += "}}";
  return line;
}

/// The accepted-line script every cell replays a suffix of.
std::vector<std::string> script() {
  return {
      admit_line("web", 1.5), admit_line("db", 2.0), tick_line(0, 1.2, 1.8),
      tick_line(1, 1.9, 0.4), tick_line(2, 0.8, 2.2), tick_line(3, 1.1, 1.0),
  };
}

Arbiter arbiter_at(const ServeConfig& config, std::size_t entries) {
  Arbiter arbiter(config);
  const std::vector<std::string> lines = script();
  for (std::size_t i = 0; i < entries && i < lines.size(); ++i) {
    arbiter.handle(parse_message(lines[i]));
  }
  return arbiter;
}

enum class Crash {
  kAfterJournalAppend,  // all lines journaled; snapshot is older (entry 4)
  kAfterSnapshot,       // snapshot covers everything; journal not compacted
  kAfterTruncate,       // snapshot + compacted (header-only) journal
  kMidTruncate,         // rename interrupted: old journal + tmp debris
};

enum class Mode { kJournalOnly, kCheckpointOnly, kBoth };

struct Cell {
  Crash crash;
  Mode mode;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name;
  switch (info.param.crash) {
    case Crash::kAfterJournalAppend: name = "AfterJournalAppend"; break;
    case Crash::kAfterSnapshot: name = "AfterSnapshot"; break;
    case Crash::kAfterTruncate: name = "AfterTruncate"; break;
    case Crash::kMidTruncate: name = "MidTruncate"; break;
  }
  switch (info.param.mode) {
    case Mode::kJournalOnly: name += "_JournalOnly"; break;
    case Mode::kCheckpointOnly: name += "_CheckpointOnly"; break;
    case Mode::kBoth: name += "_Both"; break;
  }
  return name;
}

/// "<seed>_<test name>" as one path component: a parameterized test's
/// name holds a '/', which would nest a directory that TearDown's
/// remove_all leaves behind.
std::string test_dir_suffix() {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string name = unit.current_test_info()->name();
  std::ranges::replace(name, '/', '_');
  return std::to_string(unit.random_seed()) + "_" + name;
}

class RecoveryMatrixTest : public ::testing::TestWithParam<Cell> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("ropus_recovery_" + test_dir_suffix());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_P(RecoveryMatrixTest, SurvivorContinuesByteIdentically) {
  const Cell cell = GetParam();
  const ServeConfig config = small_config();
  const std::vector<std::string> lines = script();

  DaemonOptions options;
  if (cell.mode != Mode::kCheckpointOnly) {
    options.journal_path = dir_ / "state.journal";
  }
  if (cell.mode != Mode::kJournalOnly) {
    options.checkpoint_path = dir_ / "state.ckpt";
  }

  // Lay down exactly the files the crash leaves behind.
  if (!options.journal_path.empty()) {
    Journal journal(options.journal_path, 0, 0);
    for (const std::string& line : lines) journal.append(line);
    if (!options.checkpoint_path.empty()) {
      switch (cell.crash) {
        case Crash::kAfterJournalAppend: {
          // The snapshot predates the last two appends.
          Arbiter old = arbiter_at(config, 4);
          write_checkpoint(options.checkpoint_path, old, 4);
          break;
        }
        case Crash::kAfterSnapshot:
        case Crash::kMidTruncate: {
          Arbiter full = arbiter_at(config, lines.size());
          write_checkpoint(options.checkpoint_path, full, lines.size());
          break;
        }
        case Crash::kAfterTruncate: {
          Arbiter full = arbiter_at(config, lines.size());
          write_checkpoint(options.checkpoint_path, full, lines.size());
          journal.compact();
          break;
        }
      }
    }
    if (cell.crash == Crash::kMidTruncate) {
      // write_file_atomic stages a temp file and renames; dying between
      // the two leaves the old journal plus staged debris. Recovery must
      // read only the journal path and ignore the debris.
      std::ofstream debris(dir_ / "state.journal.tmp.1234",
                           std::ios::binary);
      debris << "ROPUS-JOURNAL v2 00000000 base=999\n";
    }
  } else {
    // Checkpoint-only: the snapshot is all there is; crashes around the
    // (nonexistent) journal collapse to "snapshot present or not".
    Arbiter full = arbiter_at(config, lines.size());
    write_checkpoint(options.checkpoint_path, full, 0);
  }

  Arbiter survivor(config);
  const RecoveryReport report = recover_state(config, options, survivor);

  switch (cell.mode) {
    case Mode::kJournalOnly:
      EXPECT_EQ(report.mode, RecoveryMode::kJournalReplay);
      EXPECT_EQ(report.replayed, lines.size());
      break;
    case Mode::kCheckpointOnly:
      EXPECT_EQ(report.mode, RecoveryMode::kCheckpointOnly);
      EXPECT_EQ(report.replayed, 0u);
      break;
    case Mode::kBoth:
      EXPECT_EQ(report.mode, RecoveryMode::kCheckpointAndTail);
      EXPECT_EQ(report.replayed,
                cell.crash == Crash::kAfterJournalAppend ? 2u : 0u);
      EXPECT_EQ(report.journal_base,
                cell.crash == Crash::kAfterTruncate ? lines.size() : 0u);
      break;
  }
  EXPECT_EQ(report.journal_entries,
            cell.mode == Mode::kCheckpointOnly ? 0u : lines.size());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_TRUE(report.checkpoint_error.empty()) << report.checkpoint_error;

  // The survivor and an undisturbed reference answer the next slot with
  // the same bytes — recovery is invisible downstream.
  Arbiter reference = arbiter_at(config, lines.size());
  EXPECT_EQ(survivor.summary(), reference.summary());
  const Message next = parse_message(tick_line(4, 1.3, 1.3));
  EXPECT_EQ(survivor.handle(next), reference.handle(next));
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, RecoveryMatrixTest,
    ::testing::Values(
        Cell{Crash::kAfterJournalAppend, Mode::kJournalOnly},
        Cell{Crash::kAfterJournalAppend, Mode::kCheckpointOnly},
        Cell{Crash::kAfterJournalAppend, Mode::kBoth},
        Cell{Crash::kAfterSnapshot, Mode::kJournalOnly},
        Cell{Crash::kAfterSnapshot, Mode::kCheckpointOnly},
        Cell{Crash::kAfterSnapshot, Mode::kBoth},
        Cell{Crash::kAfterTruncate, Mode::kJournalOnly},
        Cell{Crash::kAfterTruncate, Mode::kCheckpointOnly},
        Cell{Crash::kAfterTruncate, Mode::kBoth},
        Cell{Crash::kMidTruncate, Mode::kJournalOnly},
        Cell{Crash::kMidTruncate, Mode::kCheckpointOnly},
        Cell{Crash::kMidTruncate, Mode::kBoth}),
    cell_name);

// The refusal half of the compaction contract: once entries have been
// folded into a checkpoint and dropped from the journal, recovery without
// that checkpoint must fail loudly — silently starting fresh would serve
// wrong verdicts with a straight face.
class CompactionRefusalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("ropus_refusal_" + test_dir_suffix());
    fs::create_directories(dir_);
    options_.journal_path = dir_ / "state.journal";
    options_.checkpoint_path = dir_ / "state.ckpt";
    Journal journal(options_.journal_path, 0, 0);
    for (const std::string& line : script()) journal.append(line);
    Arbiter full = arbiter_at(small_config(), script().size());
    write_checkpoint(options_.checkpoint_path, full, script().size());
    journal.compact();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
  DaemonOptions options_;
};

TEST_F(CompactionRefusalTest, MissingCheckpointIsAnIoError) {
  fs::remove(options_.checkpoint_path);
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

TEST_F(CompactionRefusalTest, CorruptCheckpointIsAnIoError) {
  fs::resize_file(options_.checkpoint_path,
                  fs::file_size(options_.checkpoint_path) / 2);
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

TEST_F(CompactionRefusalTest, NoCheckpointPathIsAnIoError) {
  options_.checkpoint_path.clear();
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

TEST_F(CompactionRefusalTest, CheckpointBehindTheBaseIsAnIoError) {
  // An operator restored an old checkpoint backup: it covers fewer entries
  // than the compaction dropped, so the gap is in neither file.
  Arbiter old = arbiter_at(small_config(), 2);
  write_checkpoint(options_.checkpoint_path, old, 2);
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

/// Flips one bit in the journal's first byte: the compaction magic no
/// longer matches, so the file reads as a v1 journal whose first frame is
/// garbage — zero parseable entries.
void flip_first_byte(const fs::path& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char c = 0;
  f.get(c);
  f.seekp(0);
  f.put(static_cast<char>(c ^ 0x01));
}

/// Same, but inside the header body so the magic still matches and only
/// the header CRC can catch it.
void flip_header_body_byte(const fs::path& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::size_t off = std::string("ROPUS-JOURNAL v2 00000000 base=").size();
  f.seekg(static_cast<std::streamoff>(off));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(off));
  f.put(static_cast<char>(c ^ 0x01));
}

TEST_F(CompactionRefusalTest, CorruptHeaderFallsBackToCheckpointNotFresh) {
  // A bit flip inside the compaction header (magic intact, CRC broken)
  // must not read as "journal holds zero entries": that path would
  // discard the covering checkpoint as 'ahead of the journal' and start
  // fresh — the exact silent-wrong-verdicts outcome this suite forbids.
  flip_header_body_byte(options_.journal_path);
  Arbiter survivor(small_config());
  const RecoveryReport report =
      recover_state(small_config(), options_, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointOnly);
  EXPECT_EQ(report.journal_base, script().size());
  EXPECT_EQ(report.journal_entries, script().size());
  EXPECT_EQ(report.journal_valid_bytes, 0u);
  Arbiter reference = arbiter_at(small_config(), script().size());
  EXPECT_EQ(survivor.summary(), reference.summary());

  // The daemon then reopens the journal with the report's counts: the
  // damaged file is replaced by a fresh header at the checkpoint's base,
  // so the *next* restart sees an ordinary compacted journal again.
  {
    Journal journal(options_.journal_path, report.journal_valid_bytes,
                    report.journal_entries, report.journal_base);
    EXPECT_EQ(journal.entries(), script().size());
    EXPECT_EQ(journal.tail_frames(), 0u);
  }
  const Journal::Recovered again = Journal::recover(options_.journal_path);
  EXPECT_FALSE(again.header_corrupt);
  EXPECT_EQ(again.base, script().size());
  Arbiter second(small_config());
  const RecoveryReport rerun =
      recover_state(small_config(), options_, second);
  EXPECT_EQ(rerun.mode, RecoveryMode::kCheckpointAndTail);
  EXPECT_EQ(second.summary(), reference.summary());
}

TEST_F(CompactionRefusalTest, CorruptHeaderMagicFlipFallsBackToCheckpoint) {
  // The literal review scenario: a bit flip at byte 0. The magic no
  // longer matches, so the journal parses as empty v1 — a state that
  // must read as "damaged, zero testimony", never as "the checkpoint is
  // ahead of an empty journal, start fresh".
  flip_first_byte(options_.journal_path);
  Arbiter survivor(small_config());
  const RecoveryReport report =
      recover_state(small_config(), options_, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointOnly);
  EXPECT_EQ(report.journal_base, script().size());
  Arbiter reference = arbiter_at(small_config(), script().size());
  EXPECT_EQ(survivor.summary(), reference.summary());
}

TEST_F(CompactionRefusalTest, TornFirstFrameOnFreshV1JournalStaysFresh) {
  // The benign twin of the damaged-at-offset-zero cases: a brand-new
  // journal-only daemon crashed mid-append of its very first entry. The
  // entry was never acknowledged (journal-before-reply), so fresh is the
  // *correct* recovery — this pins that the checkpoint fallback above
  // does not over-trigger when no checkpoint exists.
  DaemonOptions options;
  options.journal_path = dir_ / "v1.journal";
  std::ofstream torn(options.journal_path, std::ios::binary);
  torn << "deadbeef 17 half-writ";
  torn.close();
  Arbiter survivor(small_config());
  const RecoveryReport report =
      recover_state(small_config(), options, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kFresh);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.journal_entries, 0u);
}

TEST_F(CompactionRefusalTest, CorruptHeaderWithoutCheckpointIsAnIoError) {
  flip_header_body_byte(options_.journal_path);
  fs::remove(options_.checkpoint_path);
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

TEST_F(CompactionRefusalTest, CorruptHeaderWithCorruptCheckpointIsAnIoError) {
  flip_header_body_byte(options_.journal_path);
  fs::resize_file(options_.checkpoint_path,
                  fs::file_size(options_.checkpoint_path) / 2);
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

TEST_F(CompactionRefusalTest, CoveringCheckpointRecoversCleanly) {
  Arbiter survivor(small_config());
  const RecoveryReport report =
      recover_state(small_config(), options_, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointAndTail);
  EXPECT_EQ(report.journal_base, script().size());
  Arbiter reference = arbiter_at(small_config(), script().size());
  EXPECT_EQ(survivor.summary(), reference.summary());
}

TEST_F(CompactionRefusalTest, MissingProfileStoreIsAnIoError) {
  // The checkpoint is whole but names profiles that are gone: as unusable
  // as a corrupt one, and the compacted entries are in neither file.
  fs::remove(ProfileStore::path_for(options_.checkpoint_path));
  Arbiter survivor(small_config());
  EXPECT_THROW(recover_state(small_config(), options_, survivor), IoError);
}

class ProfileStoreCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("ropus_store_" + test_dir_suffix());
    fs::create_directories(dir_);
    options_.journal_path = dir_ / "state.journal";
    options_.checkpoint_path = dir_ / "state.ckpt";
    store_ = ProfileStore::path_for(options_.checkpoint_path);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
  fs::path store_;
  DaemonOptions options_;
};

TEST_F(ProfileStoreCrashTest, CrashAfterTheStoreAppendKeepsTheOlderCheckpoint) {
  const ServeConfig config = small_config();
  const std::vector<std::string> lines = script();
  Journal journal(options_.journal_path, 0, 0);
  for (const std::string& line : lines) journal.append(line);
  write_checkpoint(options_.checkpoint_path, arbiter_at(config, 1), 1);
  // The next checkpoint died between the store's fsync and its snapshot's
  // rename: db's profile is stored but named by no durable checkpoint,
  // and a store rewrite left its staging file behind.
  ProfileStore(store_).put(arbiter_at(config, lines.size()));
  std::ofstream(dir_ / "state.ckpt.profiles.tmp.1234") << "garbage";
  const std::uint64_t stored = fs::file_size(store_);

  Arbiter survivor(config);
  const RecoveryReport report = recover_state(config, options_, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointAndTail);
  EXPECT_EQ(report.replayed, lines.size() - 1);
  Arbiter reference = arbiter_at(config, lines.size());
  EXPECT_EQ(survivor.summary(), reference.summary());

  // The retried checkpoint finds db's profile stored and appends nothing.
  write_checkpoint(options_.checkpoint_path, survivor, lines.size());
  EXPECT_EQ(fs::file_size(store_), stored);
  Arbiter again(config);
  ASSERT_TRUE(load_checkpoint(options_.checkpoint_path, again).ok);
  EXPECT_EQ(again.summary(), reference.summary());
}

TEST_F(ProfileStoreCrashTest, KillMidAppendLeavesATailTheNextCheckpointCuts) {
  const ServeConfig config = small_config();
  options_.compact_journal = true;
  const std::vector<std::string> lines = script();
  std::string live_summary;
  {
    DaemonCore core(config, options_);
    for (std::size_t i = 0; i < 3; ++i) core.process_line(lines[i], false);
    ASSERT_TRUE(core.checkpoint_now());
  }
  // Killed mid-append of the next checkpoint's records.
  {
    std::ofstream torn(store_, std::ios::binary | std::ios::app);
    torn << "0badf00d 4096 0badf00d.0 [1.0,1.0";
  }
  {
    DaemonCore core(config, options_);
    EXPECT_EQ(core.recovery().mode, RecoveryMode::kCheckpointAndTail);
    for (std::size_t i = 3; i < lines.size(); ++i) {
      core.process_line(lines[i], false);
    }
    core.process_line(admit_line("late", 0.75), false);
    ASSERT_TRUE(core.checkpoint_now());
    live_summary = core.arbiter().summary();
  }
  const ProfileStore scanned(store_);
  EXPECT_EQ(scanned.bytes(), fs::file_size(store_));
  const DaemonCore restarted(config, options_);
  EXPECT_EQ(restarted.recovery().mode, RecoveryMode::kCheckpointAndTail);
  EXPECT_EQ(restarted.recovery().replayed, 0u);
  EXPECT_EQ(restarted.arbiter().summary(), live_summary);
}

TEST_F(ProfileStoreCrashTest, DanglingProfileFallsBackToJournalReplay) {
  // Without compaction the journal still holds every entry, so a
  // checkpoint that names a lost profile is passed over, not trusted.
  const ServeConfig config = small_config();
  const std::vector<std::string> lines = script();
  Journal journal(options_.journal_path, 0, 0);
  for (const std::string& line : lines) journal.append(line);
  write_checkpoint(options_.checkpoint_path, arbiter_at(config, lines.size()),
                   lines.size());
  fs::resize_file(store_, fs::file_size(store_) / 2);

  Arbiter survivor(config);
  const RecoveryReport report = recover_state(config, options_, survivor);
  EXPECT_EQ(report.mode, RecoveryMode::kJournalReplay);
  EXPECT_EQ(report.replayed, lines.size());
  EXPECT_NE(report.checkpoint_error.find("not in the profile store"),
            std::string::npos)
      << report.checkpoint_error;
  EXPECT_EQ(survivor.summary(), arbiter_at(config, lines.size()).summary());
}

}  // namespace
}  // namespace ropus::serve
