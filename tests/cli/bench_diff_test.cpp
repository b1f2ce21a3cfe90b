// Tests of the bench_diff regression gate through its library seam.
#include "bench_diff/diff.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace ropus::benchdiff {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> args(std::initializer_list<std::string> list) {
  return {list.begin(), list.end()};
}

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ropus-bench-diff-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A minimal BENCH_<name>.json: one gated latency metric, one gated
  /// throughput phase, and one non-timing metric that must never be gated.
  /// `shape` holds extra top-level members ("\"weeks\":1,").
  std::string write_bench(const std::string& filename, double eval_us,
                          double ops_per_sec, double peak_rss = 1000.0,
                          const std::string& shape = "") {
    const fs::path path = dir_ / filename;
    std::ofstream out(path);
    out << "{\"bench\":\"micro\"," << shape << "\"wall_seconds\":1.0,"
        << "\"phases\":[{\"name\":\"replay\",\"seconds\":0.5,"
        << "\"ops_per_sec\":" << ops_per_sec << "}],"
        << "\"metrics\":{\"evaluate.min_us\":" << eval_us
        << ",\"peak_rss\":" << peak_rss << "}}";
    return path.string();
  }

  int run_diff(const std::vector<std::string>& a) {
    out_.str("");
    err_.str("");
    return run(a, out_, err_);
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(BenchDiffTest, MissingInputsIsUsageError) {
  EXPECT_EQ(run_diff({}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(run_diff(args({"--baseline=x.json"})), 1);
}

TEST_F(BenchDiffTest, UnknownFlagRejected) {
  EXPECT_EQ(run_diff(args({"--baseline=x", "--current=y", "--thresold=0.2"})),
            1);
  EXPECT_NE(err_.str().find("unknown flag: --thresold"), std::string::npos);
}

TEST_F(BenchDiffTest, IdenticalRunsPass) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 100.0, 5000.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur})), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("ok: no regression"), std::string::npos);
}

TEST_F(BenchDiffTest, LatencyRegressionFailsBeyondThreshold) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 150.0, 5000.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur})), 2);
  EXPECT_NE(out_.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(out_.str().find("evaluate.min_us"), std::string::npos);
  EXPECT_NE(out_.str().find("FAIL: 1 entries regressed"), std::string::npos);
}

TEST_F(BenchDiffTest, ThroughputDropIsARegression) {
  // Lower ops/sec is worse even though the number shrank.
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 100.0, 2500.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur})), 2);
  EXPECT_NE(out_.str().find("replay.ops_per_sec"), std::string::npos);
}

TEST_F(BenchDiffTest, NonTimingMetricsAreNeverGated) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0, 100.0);
  const std::string cur = write_bench("BENCH_b.json", 100.0, 5000.0, 99999.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur})), 0);
}

TEST_F(BenchDiffTest, ThresholdIsConfigurable) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 130.0, 5000.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur,
                           "--threshold=0.5"})),
            0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur,
                           "--threshold=0.1"})),
            2);
}

TEST_F(BenchDiffTest, WarnOnlyReportsButPasses) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 200.0, 5000.0);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur,
                           "--warn-only"})),
            0);
  EXPECT_NE(out_.str().find("REGRESSION"), std::string::npos);
}

TEST_F(BenchDiffTest, DirectoriesPairByFilenameAndWarnOnGaps) {
  const fs::path base_dir = dir_ / "baselines";
  const fs::path cur_dir = dir_ / "current";
  fs::create_directories(base_dir);
  fs::create_directories(cur_dir);
  const auto bench_json = [](double eval_us) {
    std::ostringstream body;
    body << "{\"bench\":\"micro\",\"wall_seconds\":1.0,\"phases\":[],"
         << "\"metrics\":{\"evaluate.min_us\":" << eval_us << "}}";
    return body.str();
  };
  std::ofstream(base_dir / "BENCH_shared.json") << bench_json(100.0);
  std::ofstream(base_dir / "BENCH_retired.json") << bench_json(50.0);
  std::ofstream(cur_dir / "BENCH_shared.json") << bench_json(101.0);
  std::ofstream(cur_dir / "BENCH_new.json") << bench_json(10.0);

  EXPECT_EQ(run_diff(args({"--baseline=" + base_dir.string(),
                           "--current=" + cur_dir.string()})),
            0)
      << err_.str();
  // Unpaired files warn but never fail the gate.
  EXPECT_NE(err_.str().find("BENCH_retired.json"), std::string::npos);
  EXPECT_NE(err_.str().find("BENCH_new.json"), std::string::npos);
}

TEST_F(BenchDiffTest, MissingEntryWarnsInsteadOfFailing) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const fs::path cur = dir_ / "BENCH_b.json";
  std::ofstream(cur) << "{\"bench\":\"micro\",\"wall_seconds\":1.0,"
                        "\"phases\":[],\"metrics\":{}}";
  EXPECT_EQ(run_diff(args({"--baseline=" + base,
                           "--current=" + cur.string()})),
            0);
  EXPECT_NE(err_.str().find("missing from the current run"),
            std::string::npos);
}

TEST_F(BenchDiffTest, JsonOutHoldsEveryComparison) {
  const std::string base = write_bench("BENCH_a.json", 100.0, 5000.0);
  const std::string cur = write_bench("BENCH_b.json", 150.0, 5000.0);
  const std::string json_path = (dir_ / "diff.json").string();
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur,
                           "--json-out=" + json_path})),
            2);
  std::ifstream in(json_path);
  const json::Value doc = json::parse(std::string(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
  EXPECT_DOUBLE_EQ(doc.at("regressions").as_number(), 1.0);
  const auto& entries = doc.at("entries").as_array();
  ASSERT_EQ(entries.size(), 2u);  // the latency metric and the phase
  EXPECT_TRUE(entries[0].at("regressed").as_bool());
  EXPECT_NEAR(entries[0].at("slowdown").as_number(), 0.5, 1e-12);
}

TEST_F(BenchDiffTest, MismatchedRunShapeIsRefused) {
  const std::string shape = "\"weeks\":1,\"fast\":true,\"repetitions\":3,";
  const std::string base =
      write_bench("BENCH_a.json", 100.0, 5000.0, 1000.0, shape);
  EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" +
                           write_bench("BENCH_b.json", 100.0, 5000.0, 1000.0,
                                       shape)})),
            0)
      << err_.str();

  const std::vector<std::pair<std::string, std::string>> mismatches = {
      {"\"weeks\":4,\"fast\":true,\"repetitions\":3,", "'weeks': baseline 1"},
      {"\"weeks\":1,\"fast\":false,\"repetitions\":3,",
       "'fast': baseline true"},
      {"\"weeks\":1,\"fast\":true,\"repetitions\":7,",
       "'repetitions': baseline 3"},
      {"\"weeks\":1,\"fast\":true,", "current absent"},
  };
  for (const auto& [cur_shape, message] : mismatches) {
    const std::string cur =
        write_bench("BENCH_b.json", 100.0, 5000.0, 1000.0, cur_shape);
    EXPECT_EQ(run_diff(args({"--baseline=" + base, "--current=" + cur})), 1)
        << cur_shape;
    EXPECT_NE(err_.str().find(message), std::string::npos) << err_.str();
  }
}

TEST_F(BenchDiffTest, MissingFileIsIoError) {
  EXPECT_EQ(run_diff(args({"--baseline=/nonexistent/BENCH_x.json",
                           "--current=/nonexistent/BENCH_y.json"})),
            2);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
}

}  // namespace
}  // namespace ropus::benchdiff
