#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ropus::obs {
namespace {

namespace fs = std::filesystem;

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus_recorder_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    Recorder::set_active(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

/// Records with awkward doubles (non-terminating binary fractions, huge and
/// tiny magnitudes) — round-trips must be exact in both formats.
std::vector<SlotRecord> awkward_records() {
  std::vector<SlotRecord> records;
  Rng rng(20260805);
  for (std::uint32_t i = 0; i < 64; ++i) {
    SlotRecord r;
    r.slot = i * 3;
    r.app = static_cast<std::uint16_t>(i % 5);
    r.section = static_cast<std::uint16_t>(i / 16);
    r.telemetry = static_cast<std::uint8_t>(i % 5);
    r.flags = static_cast<std::uint8_t>(i % 16);
    r.demand = rng.uniform(0.0, 10.0) + 1.0 / 3.0;
    r.cos1 = rng.uniform(0.0, 4.0) * 1e-7;
    r.cos2 = rng.uniform(0.0, 4.0) * 1e7;
    r.granted = r.cos1 + 0.1 * r.cos2;
    r.satisfied2 = r.granted - r.cos1;
    records.push_back(r);
  }
  records.push_back(SlotRecord{});  // all-zero record
  SlotRecord pool;
  pool.app = kPoolApp;
  pool.demand = 0.1 + 0.2;  // famously not 0.3
  records.push_back(pool);
  return records;
}

TEST_F(RecorderTest, BinaryRoundTripIsExact) {
  const fs::path path = dir_ / "rec.bin";
  RecorderConfig config;
  config.path = path;
  config.stride = 3;
  Recorder recorder(config);
  recorder.set_calendar(5.0, 288);
  EXPECT_EQ(recorder.app_id("app-a"), 0u);
  EXPECT_EQ(recorder.app_id("app-b"), 1u);
  EXPECT_EQ(recorder.app_id("app-a"), 0u);  // lookup, not re-registration

  const std::vector<SlotRecord> records = awkward_records();
  for (const SlotRecord& r : records) recorder.append(r);
  EXPECT_FALSE(fs::exists(path)) << "nothing may be written before finish()";
  recorder.finish();
  ASSERT_TRUE(fs::exists(path));

  const Recording back = read_recording(path);
  EXPECT_EQ(back.format, RecorderConfig::Format::kBinary);
  EXPECT_EQ(back.stride, 3u);
  EXPECT_DOUBLE_EQ(back.minutes_per_sample, 5.0);
  EXPECT_EQ(back.slots_per_day, 288u);
  EXPECT_EQ(back.dropped, 0u);
  ASSERT_EQ(back.apps.size(), 2u);
  EXPECT_EQ(back.apps[0], "app-a");
  EXPECT_EQ(back.app_name(kPoolApp), "<pool>");
  ASSERT_EQ(back.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back.records[i], records[i]) << "record " << i;
  }
}

TEST_F(RecorderTest, CsvRoundTripIsExact) {
  const fs::path path = dir_ / "rec.csv";
  RecorderConfig config;
  config.path = path;
  config.format = RecorderConfig::Format::kCsv;
  Recorder recorder(config);
  recorder.set_calendar(1.0, 1440);
  recorder.app_id("app-a");
  recorder.app_id("app-b");
  recorder.app_id("app-c");
  recorder.app_id("app-d");
  recorder.app_id("app-e");

  const std::vector<SlotRecord> records = awkward_records();
  for (const SlotRecord& r : records) recorder.append(r);
  recorder.finish();

  const Recording back = read_recording(path);
  EXPECT_EQ(back.format, RecorderConfig::Format::kCsv);
  EXPECT_DOUBLE_EQ(back.minutes_per_sample, 1.0);
  EXPECT_EQ(back.slots_per_day, 1440u);
  ASSERT_EQ(back.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    // CSV re-derives dense app ids from first appearance; the names match
    // because the writer lists every registered app. %.17g must round-trip
    // every double bit for bit.
    EXPECT_EQ(back.app_name(back.records[i].app),
              back.records[i].app == kPoolApp
                  ? "<pool>"
                  : "app-" + std::string(1, static_cast<char>(
                                                'a' + records[i].app)));
    SlotRecord expected = records[i];
    expected.app = back.records[i].app;
    EXPECT_EQ(back.records[i], expected) << "record " << i;
  }
}

TEST_F(RecorderTest, ParseRecordSpecForms) {
  const RecorderConfig plain = parse_record_spec("flight.bin");
  EXPECT_EQ(plain.path, fs::path("flight.bin"));
  EXPECT_EQ(plain.format, RecorderConfig::Format::kBinary);
  EXPECT_EQ(plain.stride, 1u);
  EXPECT_EQ(plain.ring_records, RecorderConfig::kDefaultRingRecords);

  const RecorderConfig csv = parse_record_spec("flight.csv:4");
  EXPECT_EQ(csv.format, RecorderConfig::Format::kCsv);
  EXPECT_EQ(csv.stride, 4u);

  const RecorderConfig full = parse_record_spec("flight.bin:2:1024");
  EXPECT_EQ(full.stride, 2u);
  EXPECT_EQ(full.ring_records, 1024u);

  const RecorderConfig unbounded = parse_record_spec("flight.bin:1:0");
  EXPECT_EQ(unbounded.ring_records, 0u);

  // A colon followed by a non-numeric segment belongs to the path.
  const RecorderConfig colon_path = parse_record_spec("dir:with:colons/r.bin");
  EXPECT_EQ(colon_path.path, fs::path("dir:with:colons/r.bin"));
  EXPECT_EQ(colon_path.stride, 1u);

  EXPECT_THROW(parse_record_spec(""), InvalidArgument);
  EXPECT_THROW(parse_record_spec("flight.bin:0"), InvalidArgument);
}

TEST_F(RecorderTest, RingKeepsNewestRecords) {
  const fs::path path = dir_ / "ring.bin";
  RecorderConfig config;
  config.path = path;
  config.ring_records = 16;  // chunk capacity 4, max 4 chunks
  Recorder recorder(config);
  for (std::uint32_t i = 0; i < 40; ++i) {
    SlotRecord r;
    r.slot = i;
    recorder.append(r);
  }
  recorder.finish();

  const Recording back = read_recording(path);
  EXPECT_EQ(back.dropped, 24u);
  ASSERT_EQ(back.records.size(), 16u);
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].slot, 24u + i);  // the newest survive, in order
  }
}

TEST_F(RecorderTest, FinishIsIdempotentAndLaterAppendsAreDiscarded) {
  const fs::path path = dir_ / "rec.bin";
  RecorderConfig config;
  config.path = path;
  Recorder recorder(config);
  recorder.append(SlotRecord{});
  recorder.finish();
  const auto first_write = fs::last_write_time(path);
  recorder.append(SlotRecord{});  // discarded
  recorder.finish();              // no second write
  EXPECT_EQ(fs::last_write_time(path), first_write);
  EXPECT_EQ(read_recording(path).records.size(), 1u);
}

TEST_F(RecorderTest, AbandonedRecorderLeavesNoFile) {
  const fs::path path = dir_ / "never.bin";
  {
    RecorderConfig config;
    config.path = path;
    Recorder recorder(config);
    recorder.append(SlotRecord{});
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(RecorderTest, ActivePointerClearsOnDestruction) {
  RecorderConfig config;
  config.path = dir_ / "active.bin";
  {
    Recorder recorder(config);
    Recorder::set_active(&recorder);
    EXPECT_EQ(Recorder::active(), &recorder);
  }
  EXPECT_EQ(Recorder::active(), nullptr);
}

TEST_F(RecorderTest, ShouldRecordFollowsStride) {
  RecorderConfig config;
  config.path = dir_ / "stride.bin";
  config.stride = 4;
  Recorder recorder(config);
  EXPECT_TRUE(recorder.should_record(0));
  EXPECT_FALSE(recorder.should_record(3));
  EXPECT_TRUE(recorder.should_record(8));
}

TEST_F(RecorderTest, TruncatedBinaryBodyIsAnError) {
  const fs::path path = dir_ / "trunc.bin";
  RecorderConfig config;
  config.path = path;
  Recorder recorder(config);
  for (std::uint32_t i = 0; i < 8; ++i) {
    SlotRecord r;
    r.slot = i;
    recorder.append(r);
  }
  recorder.finish();
  const auto full = fs::file_size(path);
  fs::resize_file(path, full - kRecordBytes / 2);
  EXPECT_THROW(read_recording(path), IoError);
}

TEST_F(RecorderTest, ConcurrentAppendsAreLossless) {
  // Four threads hammer one unbounded recorder; every append must reach the
  // file exactly once (this test is the TSan exercise for the TLS-chunk
  // fast path racing the shared refill mutex).
  const fs::path path = dir_ / "stress.bin";
  RecorderConfig config;
  config.path = path;
  config.ring_records = 0;  // unbounded: losslessness is checkable
  Recorder recorder(config);
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        SlotRecord r;
        r.slot = i;
        r.app = static_cast<std::uint16_t>(t);
        r.demand = static_cast<double>(i) + 0.5;
        recorder.append(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  recorder.finish();

  const Recording back = read_recording(path);
  EXPECT_EQ(back.dropped, 0u);
  ASSERT_EQ(back.records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Per-thread streams stay internally ordered (chunks are per-thread) and
  // complete.
  std::vector<std::uint32_t> next(kThreads, 0);
  for (const SlotRecord& r : back.records) {
    ASSERT_LT(r.app, kThreads);
    EXPECT_EQ(r.slot, next[r.app]);
    EXPECT_DOUBLE_EQ(r.demand, static_cast<double>(r.slot) + 0.5);
    next[r.app] += 1;
  }
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

}  // namespace
}  // namespace ropus::obs
