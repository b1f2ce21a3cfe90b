#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/file_io.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/signals.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::obs::prof {
namespace {

/// Burns roughly `cpu_seconds` of CPU time on the calling thread. The
/// volatile sink keeps the loop from being optimized away; progress is
/// measured on the thread CPU clock so a preempted test machine still
/// burns the intended amount.
double thread_cpu_seconds() {
#if defined(__linux__)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return monotonic_seconds();
#endif
}

volatile std::uint64_t g_sink = 0;

void burn_cpu(double cpu_seconds) {
  const double until = thread_cpu_seconds() + cpu_seconds;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  do {
    for (int i = 0; i < 20000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink = x;
  } while (thread_cpu_seconds() < until);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Profiler::supported()) GTEST_SKIP() << "no per-thread CPU timers";
    register_current_thread();
    ASSERT_FALSE(Profiler::global().state().active);
  }
  void TearDown() override {
    if (Profiler::global().state().active) (void)Profiler::global().stop();
  }
};

TEST_F(ProfilerTest, CaptureCollectsSamplesAndSymbolizedStacks) {
  ASSERT_TRUE(Profiler::global().start(500));
  burn_cpu(0.3);
  const Profile profile = Profiler::global().stop();

  EXPECT_EQ(profile.hz, 500);
  EXPECT_GT(profile.duration_seconds, 0.0);
  // 0.3 CPU-seconds at 500 Hz is ~150 samples; accept a generous floor so
  // loaded CI machines do not flake.
  EXPECT_GE(profile.samples, 30u);
  EXPECT_FALSE(profile.stacks.empty());
  // At least one stack must have symbolized into a real frame name (the
  // build exports symbols; burn_cpu and the gtest runner are candidates).
  bool symbolized = false;
  for (const auto& [stack, count] : profile.stacks) {
    if (stack.find("0x") != 0 && stack != "[unknown]") symbolized = true;
  }
  EXPECT_TRUE(symbolized);
}

TEST_F(ProfilerTest, SpanAttributionSeparatesSelfFromTotal) {
  ASSERT_TRUE(Profiler::global().start(500));
  {
    ScopedSpan outer("proftest.outer");
    burn_cpu(0.15);
    {
      ScopedSpan inner("proftest.inner");
      burn_cpu(0.15);
    }
  }
  const Profile profile = Profiler::global().stop();

  const SpanCpu* outer = nullptr;
  const SpanCpu* inner = nullptr;
  for (const SpanCpu& span : profile.spans) {
    if (span.name == "proftest.outer") outer = &span;
    if (span.name == "proftest.inner") inner = &span;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The outer span was open for all ~0.3s: its total covers both phases
  // but its self time excludes the inner span's share.
  EXPECT_GT(outer->total_samples, outer->self_samples);
  EXPECT_GE(outer->total_samples,
            inner->total_samples + outer->self_samples / 2);
  EXPECT_EQ(inner->self_samples, inner->total_samples);
  EXPECT_GT(inner->self_samples, 0u);
  // Span tracking is capture-scoped: after stop(), a span opened with the
  // tracer off pushes nothing onto the thread's active-span stack.
  ASSERT_FALSE(Tracer::global().enabled());
  ScopedSpan after("proftest.after_stop");
  spanprof::ActiveSpan open[spanprof::kTrackedDepth];
  EXPECT_EQ(spanprof::snapshot_active_spans(open, spanprof::kTrackedDepth),
            0u);
}

TEST_F(ProfilerTest, SecondStartIsRefusedWhileActive) {
  ASSERT_TRUE(Profiler::global().start());
  EXPECT_FALSE(Profiler::global().start());
  const ProfilerState state = Profiler::global().state();
  EXPECT_TRUE(state.active);
  EXPECT_EQ(state.hz, 99);
  EXPECT_GE(state.threads, 1u);
  (void)Profiler::global().stop();
  EXPECT_FALSE(Profiler::global().state().active);
}

TEST_F(ProfilerTest, StopWithoutStartThrows) {
  EXPECT_THROW((void)Profiler::global().stop(), InvalidArgument);
}

TEST_F(ProfilerTest, InvalidRateThrows) {
  EXPECT_THROW((void)Profiler::global().start(0), InvalidArgument);
  EXPECT_THROW((void)Profiler::global().start(100000), InvalidArgument);
}

TEST_F(ProfilerTest, CapturesPoolWorkersUnderChurn) {
  // TSan stress shape: four workers burning CPU inside spans while the
  // collector drains rings and detached threads register and die
  // mid-capture. Run it at the default 99 Hz plus churn.
  parallel::set_thread_start_hook(&register_current_thread);
  ASSERT_TRUE(Profiler::global().start(500));

  std::thread churn([] {
    for (int i = 0; i < 4; ++i) {
      std::thread t([] {
        register_current_thread();
        ScopedSpan span("proftest.churn");
        burn_cpu(0.02);
      });
      t.join();
    }
  });
  parallel::for_each_index(8, 4, [](std::size_t) {
    ScopedSpan span("proftest.shard");
    burn_cpu(0.05);
  });
  churn.join();

  const Profile profile = Profiler::global().stop();
  EXPECT_GE(profile.samples, 10u);
  EXPECT_GE(profile.threads, 2u);
  bool shard_attributed = false;
  for (const SpanCpu& span : profile.spans) {
    if (span.name == "proftest.shard") shard_attributed = true;
  }
  EXPECT_TRUE(shard_attributed);
}

TEST_F(ProfilerTest, SignalStormWhileArtifactsAreWritten) {
  // Rapid SIGPROF (997 Hz) while the thread interleaves CPU burn with
  // write_file_atomic (fsync + rename, the checkpoint/journal write
  // path) and SIGUSR1 flush requests land concurrently: the capture, the
  // written files and the flush flag must all stay intact.
  signals::install_flush_handler();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ropus_profiler_storm";
  std::filesystem::create_directories(dir);

  ASSERT_TRUE(Profiler::global().start(997));
  for (int i = 0; i < 10; ++i) {
    burn_cpu(0.02);
    io::write_file_atomic(dir / "artifact.json", "{\"tick\":true}\n");
    ASSERT_NE(::raise(SIGUSR1), -1);
  }
  const Profile profile = Profiler::global().stop();

  EXPECT_GE(profile.samples, 10u);
  EXPECT_TRUE(signals::consume_flush_request());
  EXPECT_FALSE(signals::consume_flush_request());
  // The last artifact write survived the storm byte-intact.
  std::ifstream in(dir / "artifact.json");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"tick\":true}\n");
  std::filesystem::remove_all(dir);
  signals::reset_for_tests();
}

TEST_F(ProfilerTest, BackToBackCapturesAreIndependent) {
  ASSERT_TRUE(Profiler::global().start(500));
  burn_cpu(0.1);
  const Profile first = Profiler::global().stop();
  ASSERT_TRUE(Profiler::global().start(500));
  const Profile second = Profiler::global().stop();
  EXPECT_GE(first.samples, 5u);
  // The second capture lasted microseconds: its rings were reset, so it
  // must not inherit the first capture's samples.
  EXPECT_LT(second.samples, first.samples);
  EXPECT_GE(Profiler::global().state().captures, 2u);
}

// --- Folded-profile toolkit (no live capture needed) -------------------

TEST(FoldedToolkit, RoundTripsThroughTextForm) {
  FoldedStacks stacks;
  stacks["main;run;hot_loop"] = 90;
  stacks["main;run"] = 5;
  stacks["main;io_wait"] = 5;
  const std::string text = to_folded(stacks);
  EXPECT_NE(text.find("main;run;hot_loop 90\n"), std::string::npos);
  EXPECT_EQ(parse_folded(text), stacks);
}

TEST(FoldedToolkit, ParseSkipsCommentsAndSumsDuplicates) {
  const FoldedStacks stacks = parse_folded(
      "# captured by test\n"
      "\n"
      "a;b 3\r\n"
      "a;b 4\n");
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks.at("a;b"), 7u);
}

TEST(FoldedToolkit, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_folded("no_count_here\n"), IoError);
  EXPECT_THROW(parse_folded("stack notanumber\n"), IoError);
  EXPECT_THROW(parse_folded(" 42\n"), IoError);
}

TEST(FoldedToolkit, MergeSumsAcrossProfiles) {
  FoldedStacks a = {{"x;y", 10}};
  const FoldedStacks b = {{"x;y", 5}, {"x;z", 1}};
  merge_folded(a, b);
  EXPECT_EQ(a.at("x;y"), 15u);
  EXPECT_EQ(a.at("x;z"), 1u);
}

TEST(FoldedToolkit, FrameStatsSplitSelfFromTotal) {
  const FoldedStacks stacks = {
      {"main;work;leafA", 60},
      {"main;work", 10},
      {"main;leafB", 30},
  };
  const auto stats = frame_stats(stacks);
  EXPECT_EQ(stats.at("main").self, 0u);
  EXPECT_EQ(stats.at("main").total, 100u);
  EXPECT_EQ(stats.at("work").self, 10u);
  EXPECT_EQ(stats.at("work").total, 70u);
  EXPECT_EQ(stats.at("leafA").self, 60u);
  EXPECT_EQ(stats.at("leafA").total, 60u);
}

TEST(FoldedToolkit, FrameStatsCountRecursionOncePerSample) {
  const FoldedStacks stacks = {{"fib;fib;fib", 8}};
  const auto stats = frame_stats(stacks);
  EXPECT_EQ(stats.at("fib").total, 8u);
  EXPECT_EQ(stats.at("fib").self, 8u);
}

TEST(FoldedToolkit, FlamegraphSvgIsWellFormedAndEscaped) {
  const FoldedStacks stacks = {
      {"main;operator<<;vec<int>", 80},
      {"main;\"quoted\"&frame", 20},
  };
  const std::string svg = flamegraph_svg(stacks, "test <title>");
  EXPECT_EQ(svg.find("<svg "), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("test &lt;title&gt;"), std::string::npos);
  EXPECT_NE(svg.find("operator&lt;&lt;"), std::string::npos);
  EXPECT_NE(svg.find("&quot;quoted&quot;&amp;frame"), std::string::npos);
  EXPECT_EQ(svg.find("<title>main ("), svg.find("<title>main ("));
  // No raw unescaped ampersands or angle brackets from frame names.
  EXPECT_EQ(svg.find("\"quoted\""), std::string::npos);
  // Deterministic output.
  EXPECT_EQ(svg, flamegraph_svg(stacks, "test <title>"));
}

TEST(FoldedToolkit, FlamegraphSvgHandlesEmptyProfile) {
  const std::string svg = flamegraph_svg({}, "empty");
  EXPECT_NE(svg.find("(no samples)"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(FoldedToolkit, ProfileJsonParsesBackAndCarriesSchema) {
  Profile profile;
  profile.stacks = {{"a;b", 10}};
  profile.spans = {{"serve.tick", 7, 9}};
  profile.samples = 10;
  profile.unattributed = 1;
  profile.hz = 99;
  profile.duration_seconds = 2.0;
  profile.threads = 3;
  const json::Value doc = json::parse(profile_to_json(profile));
  EXPECT_EQ(doc.at("schema").as_string(), "ropus.profile.v1");
  EXPECT_EQ(doc.at("hz").as_number(), 99.0);
  EXPECT_EQ(doc.at("samples").as_number(), 10.0);
  EXPECT_EQ(doc.at("stacks").as_array().size(), 1u);
  const json::Value& span = doc.at("spans").as_array().at(0);
  EXPECT_EQ(span.at("name").as_string(), "serve.tick");
  EXPECT_EQ(span.at("self").as_number(), 7.0);
  EXPECT_EQ(span.at("total").as_number(), 9.0);
}

}  // namespace
}  // namespace ropus::obs::prof
