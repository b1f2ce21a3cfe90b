// End-to-end tests of ropus_cli through its library seam.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/json.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "trace/trace_io.h"

namespace ropus::cli {
namespace {

std::vector<std::string> args(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ropus-cli-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    traces_ = (dir_ / "traces.csv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run_cli(const std::vector<std::string>& a) {
    out_.str("");
    err_.str("");
    return run(a, out_, err_);
  }

  void generate_traces() {
    ASSERT_EQ(run_cli(args({"generate", "--weeks=1", "--apps=4",
                            ("--out=" + traces_).c_str()})),
              0)
        << err_.str();
  }

  std::filesystem::path dir_;
  std::string traces_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsageAndFails) {
  EXPECT_EQ(run_cli({}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(run_cli(args({"help"})), 0);
  EXPECT_NE(out_.str().find("consolidate"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(run_cli(args({"frobnicate"})), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesReadableCsv) {
  generate_traces();
  EXPECT_TRUE(std::filesystem::exists(traces_));
  EXPECT_NE(out_.str().find("wrote 4 traces"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresOut) {
  EXPECT_EQ(run_cli(args({"generate", "--weeks=1"})), 1);
  EXPECT_NE(err_.str().find("--out"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsUnknownFlag) {
  EXPECT_EQ(run_cli(args({"generate", "--wekks=1", "--out=/tmp/x.csv"})), 1);
  EXPECT_NE(err_.str().find("unknown flag: --wekks"), std::string::npos);
}

TEST_F(CliTest, AnalyzeShowsEveryApp) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str()})), 0)
      << err_.str();
  for (const char* app : {"app-01", "app-02", "app-03", "app-04"}) {
    EXPECT_NE(out_.str().find(app), std::string::npos) << app;
  }
}

TEST_F(CliTest, AnalyzeMissingFileIsRuntimeError) {
  EXPECT_EQ(run_cli(args({"analyze", "--traces=/nonexistent.csv"})), 2);
}

TEST_F(CliTest, TranslateShowsBreakpointAndCpeak) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"translate", ("--traces=" + traces_).c_str(),
                          "--theta=0.6", "--tdegr=30"})),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("C_peak"), std::string::npos);
  EXPECT_NE(out_.str().find("0.394"), std::string::npos);  // formula 1
}

TEST_F(CliTest, TranslateRejectsBadBand) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"translate", ("--traces=" + traces_).c_str(),
                          "--ulow=0.9", "--uhigh=0.6"})),
            1);
}

TEST_F(CliTest, ConsolidatePlacesAllWorkloads) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"consolidate", ("--traces=" + traces_).c_str(),
                          "--servers=4", "--generations=30",
                          "--population=16"})),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("C_requ"), std::string::npos);
  // Each server names the constraint that set its required capacity.
  EXPECT_NE(out_.str().find("binding"), std::string::npos);
  for (const char* app : {"app-01", "app-04"}) {
    EXPECT_NE(out_.str().find(app), std::string::npos) << app;
  }
}

TEST_F(CliTest, FailoverReportsVerdict) {
  generate_traces();
  const int code =
      run_cli(args({"failover", ("--traces=" + traces_).c_str(),
                    "--servers=4", "--generations=30", "--population=16"}));
  // Either verdict is acceptable; the report must state one.
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("normal mode:"), std::string::npos);
  EXPECT_TRUE(out_.str().find("spare server") != std::string::npos);
}

TEST_F(CliTest, FailoverConcurrentSweep) {
  // Six flat 2-CPU workloads: 4 CPUs of allocation each under U_low = 0.5,
  // so 8-way servers host two apiece and normal mode needs three servers —
  // enough active servers for a k = 2 sweep.
  std::vector<trace::DemandTrace> flat;
  const trace::Calendar cal(1, 720);
  for (int i = 0; i < 6; ++i) {
    flat.emplace_back("flat-" + std::to_string(i), cal,
                      std::vector<double>(cal.size(), 2.0));
  }
  const std::string path = (dir_ / "flat.csv").string();
  trace::write_traces_csv(path, flat);

  const int code = run_cli(
      args({"failover", ("--traces=" + path).c_str(), "--servers=4",
            "--cpus=8", "--m=100", "--generations=40", "--population=16",
            "--concurrent=2", "--failure-ulow=0.8", "--failure-uhigh=0.9",
            "--failure-udegr=0.95", "--failure-m=100"}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("concurrent failures"), std::string::npos)
      << out_.str() << err_.str();
}


TEST_F(CliTest, FaultsimReportsDistributionsAndVerdict) {
  generate_traces();
  const int code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=15", "--seed=7", "--mtbf=200", "--mttr=10"}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("fault-injection campaign"), std::string::npos);
  EXPECT_NE(out_.str().find("per-trial distributions"), std::string::npos);
  EXPECT_NE(out_.str().find("analytic cross-check"), std::string::npos);
}

TEST_F(CliTest, FaultsimIsDeterministicAcrossRuns) {
  generate_traces();
  const std::vector<std::string> cmd =
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=10", "--seed=2006", "--mtbf=150", "--mttr=8",
            "--surge-rate=1.0"});
  const int first_code = run_cli(cmd);
  const std::string first = out_.str();
  const int second_code = run_cli(cmd);
  EXPECT_EQ(first_code, second_code);
  EXPECT_EQ(first, out_.str());
}

TEST_F(CliTest, FaultsimMissingTracesIsIoError) {
  EXPECT_EQ(run_cli(args({"faultsim", "--traces=/nonexistent.csv"})), 2);
}

TEST_F(CliTest, FaultsimRejectsUnknownFlag) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"faultsim", ("--traces=" + traces_).c_str(),
                          "--mtfb=100"})),
            1);
  EXPECT_NE(err_.str().find("unknown flag: --mtfb"), std::string::npos);
}

TEST_F(CliTest, FaultsimRejectsBadReliability) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"faultsim", ("--traces=" + traces_).c_str(),
                          "--servers=4", "--mtbf=0"})),
            1);
}

TEST_F(CliTest, FaultsimTelemetryFaultsAreDeterministicAndReported) {
  generate_traces();
  const std::vector<std::string> cmd =
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=10", "--seed=2006", "--mtbf=150", "--mttr=8",
            "--telemetry-drop=0.2", "--telemetry-blackout=0.01",
            "--fallback=decay"});
  const int first_code = run_cli(cmd);
  const std::string first = out_.str();
  EXPECT_NE(first.find("telemetry faults"), std::string::npos);
  EXPECT_NE(first.find("decay-to-max"), std::string::npos);
  EXPECT_NE(first.find("fallback app-hours"), std::string::npos);
  const int second_code = run_cli(cmd);
  EXPECT_EQ(first_code, second_code);
  EXPECT_EQ(first, out_.str());
}

TEST_F(CliTest, FaultsimZeroTelemetryRatesOmitTelemetrySection) {
  generate_traces();
  const int code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=5", "--mtbf=200", "--mttr=10", "--telemetry-drop=0"}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_EQ(out_.str().find("telemetry faults"), std::string::npos);
}

TEST_F(CliTest, FaultsimRejectsBadTelemetryRate) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"faultsim", ("--traces=" + traces_).c_str(),
                          "--servers=4", "--telemetry-drop=1.5"})),
            1);
  EXPECT_EQ(run_cli(args({"faultsim", ("--traces=" + traces_).c_str(),
                          "--servers=4", "--fallback=nonsense"})),
            1);
}

TEST_F(CliTest, FaultsimWritesReportFiles) {
  generate_traces();
  const std::string report = (dir_ / "campaign.txt").string();
  const std::string json = (dir_ / "campaign.json").string();
  const int code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=5", "--mtbf=200", "--mttr=10",
            ("--out=" + report).c_str(), ("--json-out=" + json).c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  ASSERT_TRUE(std::filesystem::exists(report));
  ASSERT_TRUE(std::filesystem::exists(json));
  std::ifstream in(json);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"trials\":5"), std::string::npos);
}

TEST_F(CliTest, WlmReportsHealthAndCompliance) {
  generate_traces();
  const int code =
      run_cli(args({"wlm", ("--traces=" + traces_).c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("wlm controller simulation"), std::string::npos);
  EXPECT_NE(out_.str().find("telemetry: perfect"), std::string::npos);
  EXPECT_NE(out_.str().find("fleet telemetry health"), std::string::npos);
}

TEST_F(CliTest, WlmWithTelemetryFaultsIsDeterministic) {
  generate_traces();
  const std::vector<std::string> cmd =
      args({"wlm", ("--traces=" + traces_).c_str(), "--telemetry-drop=0.2",
            "--telemetry-corrupt=0.05", "--fallback=floor", "--seed=11"});
  const int first_code = run_cli(cmd);
  const std::string first = out_.str();
  EXPECT_NE(first.find("drop 0.200"), std::string::npos);
  const int second_code = run_cli(cmd);
  EXPECT_EQ(first_code, second_code);
  EXPECT_EQ(first, out_.str());
}

TEST_F(CliTest, WlmRejectsBadPolicy) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"wlm", ("--traces=" + traces_).c_str(),
                          "--policy=psychic"})),
            1);
}

TEST_F(CliTest, WlmWritesReportFile) {
  generate_traces();
  const std::string report = (dir_ / "wlm.txt").string();
  const int code = run_cli(args({"wlm", ("--traces=" + traces_).c_str(),
                                 ("--out=" + report).c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  ASSERT_TRUE(std::filesystem::exists(report));
  std::ifstream in(report);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, out_.str());
}

TEST_F(CliTest, ForecastShowsTrendsAndWritesCsv) {
  generate_traces();
  const std::string out_path = (dir_ / "forecast.csv").string();
  EXPECT_EQ(run_cli(args({"forecast", ("--traces=" + traces_).c_str(),
                          "--horizon=2", ("--out=" + out_path).c_str()})),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("fitted trend"), std::string::npos);
  // The written projection parses and has the requested horizon.
  const auto projected = trace::read_traces_csv(out_path);
  ASSERT_EQ(projected.size(), 4u);
  EXPECT_EQ(projected[0].calendar().weeks(), 2u);
}

TEST_F(CliTest, PlanReportsHorizonOrExhaustion) {
  generate_traces();
  const int code = run_cli(
      args({"plan", ("--traces=" + traces_).c_str(), "--servers=6",
            "--growth=0.0", "--horizon=8", "--step=4",
            "--generations=30", "--population=16"}));
  EXPECT_EQ(code, 0) << err_.str();
  EXPECT_NE(out_.str().find("capacity projection"), std::string::npos);
  EXPECT_NE(out_.str().find("lasts the horizon"), std::string::npos);
}

TEST_F(CliTest, PlanAggressiveGrowthExhaustsAndReturnsTwo) {
  generate_traces();
  const int code = run_cli(
      args({"plan", ("--traces=" + traces_).c_str(), "--servers=2",
            "--growth=0.25", "--horizon=26", "--step=2",
            "--generations=30", "--population=16"}));
  EXPECT_EQ(code, 2) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("exhausted"), std::string::npos);
}

TEST_F(CliTest, PlanJsonOutput) {
  generate_traces();
  const int code = run_cli(
      args({"plan", ("--traces=" + traces_).c_str(), "--servers=6",
            "--growth=0.0", "--horizon=4", "--step=4", "--json",
            "--generations=20", "--population=16"}));
  EXPECT_EQ(code, 0) << err_.str();
  EXPECT_NE(out_.str().find("\"points\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"exhaustion_week\":null"), std::string::npos);
}


TEST_F(CliTest, WhatifComparesScenarios) {
  generate_traces();
  const int code = run_cli(
      args({"whatif", ("--traces=" + traces_).c_str(), "--servers=6",
            "--scale=app-02:2.0", "--remove=app-01", "--shift=app-03:60",
            "--generations=25", "--population=16"}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("baseline"), std::string::npos);
  EXPECT_NE(out_.str().find("scenario"), std::string::npos);
  EXPECT_NE(out_.str().find("4 -> 3 workloads"), std::string::npos);
}

TEST_F(CliTest, WhatifRejectsUnknownApp) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"whatif", ("--traces=" + traces_).c_str(),
                          "--scale=ghost:2.0"})),
            1);
  EXPECT_NE(err_.str().find("unknown application"), std::string::npos);
}

TEST_F(CliTest, WhatifRejectsMalformedPairs) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"whatif", ("--traces=" + traces_).c_str(),
                          "--scale=app-01"})),
            1);
}


TEST_F(CliTest, BacktestReportsPerServerOutcome) {
  // Two weeks so one can be held out.
  ASSERT_EQ(run_cli(args({"generate", "--weeks=2", "--apps=4",
                          ("--out=" + traces_).c_str()})),
            0)
      << err_.str();
  const int code = run_cli(
      args({"backtest", ("--traces=" + traces_).c_str(), "--servers=4",
            "--theta=0.6", "--generations=30", "--population=16"}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  EXPECT_NE(out_.str().find("worst observed theta"), std::string::npos);
  EXPECT_NE(out_.str().find("trained on 1 week(s)"), std::string::npos);
}

TEST_F(CliTest, BacktestNeedsAHoldout) {
  generate_traces();  // 1 week: no holdout possible
  EXPECT_EQ(run_cli(args({"backtest", ("--traces=" + traces_).c_str(),
                          "--servers=4"})),
            1);
}


TEST_F(CliTest, GlobalObservabilityFlagsWriteJsonOutputs) {
  generate_traces();
  const std::string metrics = (dir_ / "m.json").string();
  const std::string manifest = (dir_ / "run.json").string();
  const std::string trace = (dir_ / "t.json").string();
  const int code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--trials=3",
            "--seed=7", "--mtbf=500", "--mttr=4",
            ("--metrics-out=" + metrics).c_str(),
            ("--run-manifest=" + manifest).c_str(),
            ("--trace-out=" + trace).c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  const json::Value m = json::parse(slurp(metrics));
  const json::Value& trial_seconds =
      m.at("histograms").at("faultsim.trial_seconds");
  EXPECT_GE(trial_seconds.at("count").as_number(), 3.0);
  EXPECT_GT(trial_seconds.at("max").as_number(), 0.0);
  EXPECT_GE(m.at("counters").at("faultsim.trials").as_number(), 3.0);

  const json::Value r = json::parse(slurp(manifest));
  EXPECT_EQ(r.at("command").as_string(), "faultsim");
  EXPECT_DOUBLE_EQ(r.at("seed").as_number(), 7.0);
  EXPECT_EQ(r.at("flags").at("trials").as_string(), "3");
  EXPECT_GE(r.at("wall_seconds").as_number(), 0.0);
  EXPECT_FALSE(r.at("git_describe").as_string().empty());
  // The manifest embeds the same metric snapshot for one-file provenance.
  EXPECT_GE(r.at("metrics")
                .at("histograms")
                .at("faultsim.trial_seconds")
                .at("count")
                .as_number(),
            3.0);

  const json::Value t = json::parse(slurp(trace));
  EXPECT_FALSE(t.at("traceEvents").as_array().empty());
}

TEST_F(CliTest, LogLevelFlagAccepted) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          "--log-level=debug"})),
            0)
      << err_.str();
}

TEST_F(CliTest, LogLevelRejectsUnknownValue) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          "--log-level=chatty"})),
            1);
  EXPECT_NE(err_.str().find("log-level"), std::string::npos);
}


// --- flight recording (--record-out) and the report command ---

TEST_F(CliTest, RecordOutFlushesOnDomainExitCodeTwo) {
  // A demand step the reactive controller cannot anticipate: the step slot
  // is violating, so wlm exits with the domain code 2 — and the recording
  // must still be flushed, complete and parseable.
  const trace::Calendar cal(1, 60);  // 168 hourly slots
  std::vector<double> demand(cal.size(), 1.0);
  for (std::size_t i = cal.size() / 2; i < demand.size(); ++i) demand[i] = 8.0;
  std::vector<trace::DemandTrace> step;
  step.emplace_back("step", cal, demand);
  const std::string path = (dir_ / "step.csv").string();
  trace::write_traces_csv(path, step);

  const std::string rec = (dir_ / "wlm.bin").string();
  EXPECT_EQ(run_cli(args({"wlm", ("--traces=" + path).c_str(),
                          ("--record-out=" + rec).c_str()})),
            2)
      << out_.str() << err_.str();
  const obs::Recording recording = obs::read_recording(rec);
  EXPECT_EQ(recording.records.size(), cal.size());
  ASSERT_EQ(recording.apps.size(), 1u);
  EXPECT_EQ(recording.apps[0], "step");
  EXPECT_DOUBLE_EQ(recording.minutes_per_sample, 60.0);
}

TEST_F(CliTest, RecordOutLeavesNoFileOnException) {
  const std::string rec = (dir_ / "never.bin").string();
  EXPECT_EQ(run_cli(args({"analyze", "--traces=/nonexistent.csv",
                          ("--record-out=" + rec).c_str()})),
            2);
  EXPECT_FALSE(std::filesystem::exists(rec));
}

TEST_F(CliTest, RecordOutRejectsBadSpec) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          "--record-out=rec.bin:0"})),
            1);
}

TEST_F(CliTest, FaultsimRecordingAndReportRoundTrip) {
  generate_traces();
  const std::string rec = (dir_ / "campaign.bin").string();
  const int sim_code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=3", "--seed=7", "--mtbf=200", "--mttr=10",
            ("--record-out=" + rec).c_str()}));
  EXPECT_TRUE(sim_code == 0 || sim_code == 2) << err_.str();

  // Stride 1, default ring: every slot of every trial is retained.
  const obs::Recording recording = obs::read_recording(rec);
  EXPECT_EQ(recording.dropped, 0u);
  EXPECT_EQ(recording.records.size(), 4u * 2016u * 3u);
  EXPECT_EQ(recording.apps.size(), 4u);

  // A hand-rolled BENCH file exercises the --bench summary table.
  const std::string bench = (dir_ / "BENCH_unit.json").string();
  std::ofstream(bench) << "{\"bench\":\"unit\",\"wall_seconds\":1.5,"
                          "\"phases\":[],\"metrics\":{}}";

  const std::string json_path = (dir_ / "report.json").string();
  const int report_code = run_cli(
      args({"report", ("--records=" + rec).c_str(),
            ("--bench=" + bench).c_str(),
            ("--json-out=" + json_path).c_str()}));
  EXPECT_TRUE(report_code == 0 || report_code == 2) << err_.str();
  EXPECT_NE(out_.str().find("SLO attainment report"), std::string::npos);
  EXPECT_NE(out_.str().find("trajectory"), std::string::npos);
  EXPECT_NE(out_.str().find("bench results"), std::string::npos);
  EXPECT_NE(out_.str().find("verdict:"), std::string::npos);

  std::ifstream in(json_path);
  const json::Value doc = json::parse(std::string(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
  EXPECT_EQ(doc.at("ok").as_bool(), report_code == 0);
  const json::Value& recording_json = doc.at("recordings").as_array().at(0);
  EXPECT_DOUBLE_EQ(recording_json.at("records").as_number(),
                   4.0 * 2016.0 * 3.0);
  // faultsim recordings carry per-app records only, so theta is an estimate.
  EXPECT_FALSE(recording_json.at("theta_exact").as_bool());
  // One theta point per trial, and at least a normal-mode attainment row
  // per application.
  EXPECT_EQ(recording_json.at("theta_trajectory").as_array().size(), 3u);
  EXPECT_GE(recording_json.at("attainment").as_array().size(), 4u);
}

TEST_F(CliTest, RecordOutCsvWithStride) {
  generate_traces();
  const std::string rec = (dir_ / "flight.csv").string();
  const int code = run_cli(args({"wlm", ("--traces=" + traces_).c_str(),
                                 ("--record-out=" + rec + ":4").c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  const obs::Recording recording = obs::read_recording(rec);
  EXPECT_EQ(recording.format, obs::RecorderConfig::Format::kCsv);
  EXPECT_EQ(recording.stride, 4u);
  EXPECT_EQ(recording.records.size(), 4u * 504u);  // every 4th of 2016 slots

  const int report_code = run_cli(args({"report", ("--records=" + rec).c_str()}));
  EXPECT_TRUE(report_code == 0 || report_code == 2) << err_.str();
  EXPECT_NE(out_.str().find("stride 4"), std::string::npos);
  EXPECT_NE(out_.str().find("approximations"), std::string::npos);
}

TEST_F(CliTest, ReportFlagValidation) {
  EXPECT_EQ(run_cli(args({"report"})), 1);
  EXPECT_NE(err_.str().find("--records"), std::string::npos);
  EXPECT_EQ(run_cli(args({"report", "--records=/nonexistent.bin"})), 2);
  EXPECT_EQ(run_cli(args({"report", "--records=x.bin", "--recrods=y"})), 1);
  EXPECT_NE(err_.str().find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, KilledRunLeavesAbsentOrCompleteRecording) {
  // Nothing is written before finish() and the write itself is atomic, so a
  // SIGKILL mid-campaign must leave either no recording at all or a fully
  // parseable one — never a truncated file.
  generate_traces();
  const std::string rec = (dir_ / "killed.bin").string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(
        args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
              "--trials=200", "--seed=7", "--mtbf=200", "--mttr=10",
              ("--record-out=" + rec).c_str()}),
        out, err);
    ::_exit(code);
  }
  ::usleep(300 * 1000);  // long enough to be mid-campaign, not done
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  if (std::filesystem::exists(rec)) {
    // The child happened to finish before the kill: the file must parse.
    EXPECT_NO_THROW(obs::read_recording(rec));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(CliTest, ProfileOutWritesArtifactInEveryFormat) {
  if (!obs::prof::Profiler::supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  generate_traces();
  const std::string folded = (dir_ / "run.folded").string();
  const int code = run_cli(
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=10", "--seed=7", "--mtbf=200", "--mttr=10",
            ("--profile-out=" + folded + ":499").c_str()}));
  EXPECT_TRUE(code == 0 || code == 2) << err_.str();
  const std::string content = slurp(folded);
  EXPECT_NE(content.find("# ropus_cli faultsim profile:"), std::string::npos);
  EXPECT_NE(content.find("499 Hz"), std::string::npos);
  EXPECT_NO_THROW((void)obs::prof::parse_folded(content));

  // Extension picks the format; a near-instant command (possibly zero
  // samples) must still flush a well-formed artifact.
  const std::string svg = (dir_ / "run.svg").string();
  ASSERT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          ("--profile-out=" + svg).c_str()})),
            0)
      << err_.str();
  EXPECT_EQ(slurp(svg).rfind("<svg", 0), 0u);
  const std::string as_json = (dir_ / "run.json").string();
  ASSERT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          ("--profile-out=" + as_json).c_str()})),
            0)
      << err_.str();
  EXPECT_EQ(json::parse(slurp(as_json)).at("schema").as_string(),
            "ropus.profile.v1");
}

TEST_F(CliTest, ProfileOutRejectsBadSpec) {
  generate_traces();
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          "--profile-out=x.folded:9999"})),
            1);
  EXPECT_NE(err_.str().find("--profile-out rate"), std::string::npos);
  EXPECT_EQ(run_cli(args({"analyze", ("--traces=" + traces_).c_str(),
                          "--profile-out=:99"})),
            1);
  EXPECT_NE(err_.str().find("--profile-out needs"), std::string::npos);
}

TEST_F(CliTest, ProfileOutDoesNotPerturbVerdictBytes) {
  // The determinism contract survives sampling: the same faultsim campaign
  // at --threads=1 (plain serial loops) and --threads=8 under an active
  // 499 Hz capture produces byte-identical output.
  if (!obs::prof::Profiler::supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  generate_traces();
  const std::vector<std::string> base =
      args({"faultsim", ("--traces=" + traces_).c_str(), "--servers=4",
            "--trials=12", "--seed=2006", "--mtbf=150", "--mttr=8",
            "--threads=1"});
  const int first_code = run_cli(base);
  const std::string reference = out_.str();

  std::vector<std::string> profiled = base;
  profiled.back() = "--threads=8";
  profiled.push_back("--profile-out=" + (dir_ / "det.folded").string() +
                     ":499");
  const int second_code = run_cli(profiled);
  EXPECT_EQ(first_code, second_code);
  EXPECT_EQ(reference, out_.str());
  EXPECT_TRUE(std::filesystem::exists(dir_ / "det.folded"));
}

class ProfileCmdTest : public CliTest {
 protected:
  std::string write_folded(const std::string& name,
                           const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << content;
    return path;
  }
};

TEST_F(ProfileCmdTest, TopRanksFramesBySelfTime) {
  const std::string a =
      write_folded("a.folded", "main;work 90\nmain;other 10\n");
  EXPECT_EQ(run_cli(args({"profile", ("--top=" + a).c_str()})), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("100 samples"), std::string::npos);
  // `work` leads with 90% self; `main` has 0% self but 100% total.
  EXPECT_NE(out_.str().find("90.00"), std::string::npos);
  EXPECT_NE(out_.str().find("work"), std::string::npos);
  EXPECT_NE(out_.str().find("100.00"), std::string::npos);
}

TEST_F(ProfileCmdTest, AggregateSumsAndRenderEmitsSvg) {
  const std::string a =
      write_folded("a.folded", "main;work 90\nmain;other 10\n");
  const std::string b = write_folded("b.folded", "main;work 10\n");
  const std::string merged = (dir_ / "merged.folded").string();
  EXPECT_EQ(run_cli(args({"profile", "--aggregate", a.c_str(), b.c_str(),
                          ("--out=" + merged).c_str()})),
            0)
      << err_.str();
  const auto stacks = obs::prof::parse_folded(slurp(merged));
  EXPECT_EQ(stacks.at("main;work"), 100u);
  EXPECT_EQ(stacks.at("main;other"), 10u);

  EXPECT_EQ(run_cli(args({"profile", ("--render=" + merged).c_str(),
                          "--title=merged"})),
            0)
      << err_.str();
  EXPECT_EQ(out_.str().rfind("<svg", 0), 0u);
  EXPECT_NE(out_.str().find("merged"), std::string::npos);
}

TEST_F(ProfileCmdTest, DiffComparesSharesAndGates) {
  // work: 90% -> 50% self share; other: 10% -> 50% (+40 points).
  const std::string a =
      write_folded("old.folded", "main;work 90\nmain;other 10\n");
  const std::string b =
      write_folded("new.folded", "main;work 50\nmain;other 50\n");
  EXPECT_EQ(run_cli(args({"profile", "--diff", a.c_str(), b.c_str()})), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("+40.00"), std::string::npos);
  EXPECT_NE(out_.str().find("-40.00"), std::string::npos);

  EXPECT_EQ(
      run_cli(args({"profile", "--diff", a.c_str(), b.c_str(), "--gate=10"})),
      2);
  EXPECT_NE(out_.str().find("GATE FAIL"), std::string::npos);
  EXPECT_NE(out_.str().find("other"), std::string::npos);
  EXPECT_EQ(
      run_cli(args({"profile", "--diff", a.c_str(), b.c_str(), "--gate=45"})),
      0);
  EXPECT_NE(out_.str().find("gate ok"), std::string::npos);
}

TEST_F(ProfileCmdTest, ValidationAndErrorPaths) {
  EXPECT_EQ(run_cli(args({"profile"})), 1);
  EXPECT_NE(err_.str().find("exactly one of"), std::string::npos);
  const std::string a = write_folded("a.folded", "main;work 1\n");
  EXPECT_EQ(run_cli(args({"profile", ("--top=" + a).c_str(),
                          ("--render=" + a).c_str()})),
            1);
  EXPECT_EQ(run_cli(args({"profile", "--top=/nonexistent.folded"})), 2);
  // A directory is a read error, not an empty profile.
  EXPECT_EQ(run_cli(args({"profile", ("--render=" + dir_.string()).c_str()})),
            2);
  EXPECT_NE(err_.str().find("cannot read"), std::string::npos);
  const std::string bad = write_folded("bad.folded", "no-count-here\n");
  EXPECT_EQ(run_cli(args({"profile", ("--top=" + bad).c_str()})), 2);
  EXPECT_NE(err_.str().find("bad.folded"), std::string::npos);
  EXPECT_EQ(run_cli(args({"profile", "--diff", a.c_str()})), 1);
  EXPECT_NE(err_.str().find("exactly two"), std::string::npos);
}

}  // namespace
}  // namespace ropus::cli
