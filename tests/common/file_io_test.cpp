#include "common/file_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.h"

namespace ropus::io {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus_file_io_" +
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

TEST_F(FileIoTest, WritesContentAndLeavesNoTempFile) {
  const fs::path target = dir_ / "report.txt";
  write_file_atomic(target, "hello\nworld\n");
  EXPECT_EQ(slurp(target), "hello\nworld\n");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    entries += 1;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp debris
}

TEST_F(FileIoTest, ReplacesExistingFileCompletely) {
  const fs::path target = dir_ / "report.txt";
  write_file_atomic(target, "a long first version of the file\n");
  write_file_atomic(target, "v2\n");
  EXPECT_EQ(slurp(target), "v2\n");
}

TEST_F(FileIoTest, WritesEmptyContent) {
  const fs::path target = dir_ / "empty.txt";
  write_file_atomic(target, "");
  EXPECT_TRUE(fs::exists(target));
  EXPECT_EQ(slurp(target), "");
}

TEST_F(FileIoTest, RelativePathWithoutDirectoryWorks) {
  const fs::path previous = fs::current_path();
  fs::current_path(dir_);
  write_file_atomic("bare.txt", "x");
  fs::current_path(previous);
  EXPECT_EQ(slurp(dir_ / "bare.txt"), "x");
}

TEST_F(FileIoTest, MissingDirectoryThrowsIoErrorWithoutDebris) {
  const fs::path target = dir_ / "no-such-subdir" / "report.txt";
  EXPECT_THROW(write_file_atomic(target, "x"), IoError);
  EXPECT_FALSE(fs::exists(target));
}

// Durability is a call-path property: the data must be fsynced before the
// rename, and the parent directory after it, or a power cut can leave a
// renamed-but-empty file (data loss the content checks above can never
// see). The stats counters are the observable proxy for those calls.
TEST_F(FileIoTest, EveryAtomicWriteFsyncsFileAndParentDirectory) {
  const FsyncStats before = fsync_stats();
  write_file_atomic(dir_ / "a.txt", "payload");
  const FsyncStats after_one = fsync_stats();
  EXPECT_EQ(after_one.file_fsyncs, before.file_fsyncs + 1);
  EXPECT_EQ(after_one.dir_fsyncs, before.dir_fsyncs + 1);

  write_file_atomic(dir_ / "a.txt", "replacement");
  write_file_atomic(dir_ / "b.txt", "second file");
  const FsyncStats after_three = fsync_stats();
  EXPECT_EQ(after_three.file_fsyncs, before.file_fsyncs + 3);
  EXPECT_EQ(after_three.dir_fsyncs, before.dir_fsyncs + 3);
}

TEST_F(FileIoTest, ReadFileTellsMissingFromEmptyAndRefusesADirectory) {
  EXPECT_EQ(read_file(dir_ / "absent.txt"), std::nullopt);
  write_file_atomic(dir_ / "empty.txt", "");
  EXPECT_EQ(read_file(dir_ / "empty.txt"), std::optional<std::string>(""));
  // More than one read(2) chunk, with a NUL byte: read whole and exact.
  std::string big(200000, 'x');
  big[100000] = '\0';
  write_file_atomic(dir_ / "big.bin", big);
  EXPECT_EQ(read_file(dir_ / "big.bin"), std::optional<std::string>(big));
  // A directory opens, but reading it fails: an error, not an empty file.
  EXPECT_THROW(read_file(dir_), IoError);
}

TEST_F(FileIoTest, FailedWriteFsyncsNothingExtra) {
  const FsyncStats before = fsync_stats();
  EXPECT_THROW(write_file_atomic(dir_ / "missing" / "x.txt", "x"), IoError);
  const FsyncStats after = fsync_stats();
  // The open fails before any data reaches a descriptor; neither counter
  // may move, or the stats would overstate durability.
  EXPECT_EQ(after.file_fsyncs, before.file_fsyncs);
  EXPECT_EQ(after.dir_fsyncs, before.dir_fsyncs);
}

}  // namespace
}  // namespace ropus::io
