// The daemon envelope around the arbiter: stream-in/stream-out behaviour,
// protocol hardening (error replies, never exceptions), overload shedding,
// persistence wiring and the signal drain path.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/signals.h"
#include "serve/checkpoint.h"

namespace ropus::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWeekSlots = 7 * 24;

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    signals::reset_for_tests();
    dir_ = fs::temp_directory_path() /
           ("ropus_daemon_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    signals::reset_for_tests();
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

std::string admit_line(const std::string& app) {
  std::string line = R"({"type":"admit","app":")" + app + R"(","profile":[1)";
  for (std::size_t i = 1; i < kWeekSlots; ++i) line += ",1";
  return line + "]}";
}

std::string tick_line(std::size_t slot, const std::string& demand) {
  return R"({"type":"tick","slot":)" + std::to_string(slot) +
         R"(,"demand":)" + demand + "}";
}

std::vector<std::string> reply_lines(const std::ostringstream& out) {
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string type_of(const std::string& reply) {
  return json::parse(reply).at("type").as_string();
}

TEST(ShouldShed, QueuePressureAndSlowTicks) {
  EXPECT_FALSE(should_shed(0, 8, 0.0, 0.0));
  EXPECT_FALSE(should_shed(4, 8, 0.0, 0.0));  // exactly half: not yet
  EXPECT_TRUE(should_shed(5, 8, 0.0, 0.0));
  EXPECT_TRUE(should_shed(8, 8, 0.0, 0.0));
  // The deadline arm only engages when configured.
  EXPECT_FALSE(should_shed(0, 8, 500.0, 0.0));
  EXPECT_TRUE(should_shed(0, 8, 500.0, 100.0));
  EXPECT_FALSE(should_shed(0, 8, 50.0, 100.0));
}

TEST(DaemonOptionsValidate, RejectsNonsense) {
  DaemonOptions options;
  EXPECT_NO_THROW(options.validate());
  options.queue_capacity = 0;
  EXPECT_THROW(options.validate(), Error);
  options = DaemonOptions{};
  options.checkpoint_every_slots = 0;
  EXPECT_THROW(options.validate(), Error);
  options = DaemonOptions{};
  options.tick_deadline_ms = -1.0;
  EXPECT_THROW(options.validate(), Error);
}

TEST_F(DaemonTest, DrainsStreamAndEmitsSummary) {
  std::istringstream in(admit_line("web") + "\n" +
                        tick_line(0, R"({"web":0.6})") + "\n" +
                        tick_line(1, R"({"web":0.7})") + "\n");
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_daemon(small_config(), DaemonOptions{}, in, out, err);
  EXPECT_EQ(rc, 0);
  const std::vector<std::string> lines = reply_lines(out);
  ASSERT_EQ(lines.size(), 5u);  // ready, admission, 2 verdicts, summary
  EXPECT_EQ(type_of(lines[0]), "ready");
  EXPECT_EQ(json::parse(lines[0]).at("recovery").as_string(), "fresh");
  EXPECT_EQ(type_of(lines[1]), "admission");
  EXPECT_EQ(type_of(lines[2]), "verdict");
  EXPECT_EQ(type_of(lines[3]), "verdict");
  EXPECT_EQ(type_of(lines[4]), "summary");
  EXPECT_EQ(json::parse(lines[4]).at("slots").as_number(), 2.0);
}

TEST_F(DaemonTest, HostileInputGetsTypedErrorsNeverACrash) {
  std::istringstream in(std::string("this is not json\n") +
                        "   \t\n" +  // blank: silently skipped
                        R"({"type":"warp"})" + "\n" +
                        tick_line(0, R"({"a":1})") + "\n" +
                        tick_line(0, R"({"a":1})") + "\n" +  // duplicate
                        R"({"type":"tick","slot":-3,"demand":{}})" + "\n" +
                        R"({"type":"checkpoint"})" + "\n" +
                        std::string(200, 'x') + "\n");
  std::ostringstream out;
  std::ostringstream err;
  DaemonOptions options;
  options.max_line_bytes = 128;
  const int rc = run_daemon(small_config(), options, in, out, err);
  EXPECT_EQ(rc, 0);
  const std::vector<std::string> lines = reply_lines(out);
  // ready, malformed, unknown_type, verdict, duplicate verdict, bad_value,
  // bad_value (checkpoint without a path), line_too_long, summary
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_EQ(json::parse(lines[1]).at("code").as_string(), "malformed");
  EXPECT_EQ(json::parse(lines[2]).at("code").as_string(), "unknown_type");
  EXPECT_EQ(type_of(lines[3]), "verdict");
  EXPECT_EQ(lines[4], lines[3]);  // duplicate re-emits cached bytes
  EXPECT_EQ(json::parse(lines[5]).at("code").as_string(), "bad_value");
  EXPECT_EQ(json::parse(lines[6]).at("code").as_string(), "bad_value");
  EXPECT_EQ(json::parse(lines[7]).at("code").as_string(), "line_too_long");
  EXPECT_EQ(type_of(lines[8]), "summary");
}

TEST_F(DaemonTest, ShutdownMessageStopsBeforeRemainingInput) {
  std::istringstream in(tick_line(0, "{}") + "\n" +
                        R"({"type":"shutdown"})" + "\n" +
                        tick_line(1, "{}") + "\n");
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_daemon(small_config(), DaemonOptions{}, in, out, err);
  EXPECT_EQ(rc, 0);
  const std::vector<std::string> lines = reply_lines(out);
  ASSERT_EQ(lines.size(), 3u);  // ready, verdict 0, summary — tick 1 unread
  EXPECT_EQ(type_of(lines.back()), "summary");
  EXPECT_EQ(json::parse(lines.back()).at("slots").as_number(), 1.0);
}

TEST_F(DaemonTest, TerminationSignalDrainsWithCode130) {
  signals::request_termination(15);
  std::istringstream in(tick_line(0, "{}") + "\n");
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_daemon(small_config(), DaemonOptions{}, in, out, err);
  EXPECT_EQ(rc, 130);
  // The drain path still emits the summary for whoever is collecting.
  const std::vector<std::string> lines = reply_lines(out);
  EXPECT_EQ(type_of(lines.back()), "summary");
  EXPECT_NE(err.str().find("terminated by signal"), std::string::npos);
}

TEST_F(DaemonTest, JournalAndCheckpointDriveRecovery) {
  const ServeConfig config = small_config();
  DaemonOptions options;
  options.journal_path = (dir_ / "serve.journal").string();
  options.checkpoint_path = (dir_ / "serve.ckpt").string();
  options.checkpoint_every_slots = 2;

  std::ostringstream first_out;
  {
    std::istringstream in(admit_line("web") + "\n" +
                          tick_line(0, R"({"web":0.9})") + "\n" +
                          tick_line(1, R"({"web":0.8})") + "\n" +
                          tick_line(2, R"({"web":0.7})") + "\n");
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, first_out, err), 0);
  }
  ASSERT_TRUE(fs::exists(options.journal_path));
  ASSERT_TRUE(fs::exists(options.checkpoint_path));

  // Restart: the ready line reports checkpoint+journal recovery, and a
  // resend of the last tick re-emits its verdict byte-identically.
  const std::string last_tick = tick_line(2, R"({"web":0.7})");
  std::ostringstream second_out;
  {
    std::istringstream in(last_tick + "\n" + tick_line(3, R"({"web":0.6})") +
                          "\n");
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, second_out, err), 0);
  }
  const std::vector<std::string> first = reply_lines(first_out);
  const std::vector<std::string> second = reply_lines(second_out);
  const json::Value ready = json::parse(second[0]);
  EXPECT_EQ(ready.at("recovery").as_string(), "checkpoint+journal");
  EXPECT_EQ(ready.at("slots").as_number(), 3.0);
  EXPECT_EQ(ready.at("apps").as_number(), 1.0);
  // first: ready admission v0 v1 v2 summary; second: ready v2 v3 summary.
  EXPECT_EQ(second[1], first[4]);
  EXPECT_EQ(type_of(second[2]), "verdict");
  EXPECT_EQ(json::parse(second[2]).at("slot").as_number(), 3.0);
}

TEST_F(DaemonTest, CorruptCheckpointFallsBackToJournalReplay) {
  const ServeConfig config = small_config();
  DaemonOptions options;
  options.journal_path = (dir_ / "serve.journal").string();
  options.checkpoint_path = (dir_ / "serve.ckpt").string();

  std::ostringstream first_out;
  {
    std::istringstream in(admit_line("web") + "\n" +
                          tick_line(0, R"({"web":0.9})") + "\n" +
                          tick_line(1, R"({"web":0.4})") + "\n");
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, first_out, err), 0);
  }
  fs::resize_file(options.checkpoint_path,
                  fs::file_size(options.checkpoint_path) / 2);

  std::ostringstream second_out;
  std::ostringstream err;
  {
    std::istringstream in(tick_line(2, R"({"web":0.5})") + "\n");
    ASSERT_EQ(run_daemon(config, options, in, second_out, err), 0);
  }
  const std::vector<std::string> second = reply_lines(second_out);
  const json::Value ready = json::parse(second[0]);
  EXPECT_EQ(ready.at("recovery").as_string(), "journal");
  EXPECT_EQ(ready.at("replayed").as_number(), 3.0);
  EXPECT_EQ(ready.at("slots").as_number(), 2.0);
  EXPECT_NE(err.str().find("checkpoint unused"), std::string::npos);
}

TEST_F(DaemonTest, CheckpointOnlyRecoveryRestoresState) {
  const ServeConfig config = small_config();
  DaemonOptions options;
  options.checkpoint_path = (dir_ / "only.ckpt").string();

  {
    std::istringstream in(admit_line("web") + "\n" +
                          tick_line(0, R"({"web":0.9})") + "\n" +
                          tick_line(1, R"({"web":0.8})") + "\n");
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, out, err), 0);
  }
  ASSERT_TRUE(fs::exists(options.checkpoint_path));

  // Without a journal the exit checkpoint is the sole source of truth:
  // restart restores it instead of silently starting fresh.
  {
    std::istringstream in(tick_line(2, R"({"web":0.7})") + "\n");
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, out, err), 0);
    const std::vector<std::string> lines = reply_lines(out);
    const json::Value ready = json::parse(lines[0]);
    EXPECT_EQ(ready.at("recovery").as_string(), "checkpoint");
    EXPECT_EQ(ready.at("slots").as_number(), 2.0);
    EXPECT_EQ(ready.at("apps").as_number(), 1.0);
    EXPECT_EQ(type_of(lines[1]), "verdict");
    EXPECT_EQ(json::parse(lines[1]).at("slot").as_number(), 2.0);
    EXPECT_EQ(err.str().find("checkpoint unused"), std::string::npos);
  }

  // A corrupt snapshot cannot be recovered from (there is no journal to
  // fall back to), but the daemon says so and starts fresh.
  fs::resize_file(options.checkpoint_path,
                  fs::file_size(options.checkpoint_path) / 2);
  {
    std::istringstream in(tick_line(0, "{}") + "\n");
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_daemon(config, options, in, out, err), 0);
    const std::vector<std::string> lines = reply_lines(out);
    EXPECT_EQ(json::parse(lines[0]).at("recovery").as_string(), "fresh");
    EXPECT_NE(err.str().find("checkpoint unused"), std::string::npos);
  }
}

TEST_F(DaemonTest, PersistenceFailureThrowsIoErrorInsteadOfAborting) {
  // An unwritable checkpoint path makes the drain checkpoint throw; the
  // IoError must propagate per the run_daemon contract — not abort via a
  // joinable reader thread's destructor.
  DaemonOptions options;
  options.checkpoint_path = (dir_ / "no_such_dir" / "state.ckpt").string();
  std::istringstream in(tick_line(0, "{}") + "\n");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_THROW(run_daemon(small_config(), options, in, out, err), IoError);
}

TEST_F(DaemonTest, RecoverStateModes) {
  const ServeConfig config = small_config();
  DaemonOptions options;

  // No persistence configured: fresh, nothing replayed.
  {
    Arbiter arbiter(config);
    const RecoveryReport report = recover_state(config, options, arbiter);
    EXPECT_EQ(report.mode, RecoveryMode::kFresh);
    EXPECT_EQ(report.replayed, 0u);
  }

  // Journal only: full replay.
  options.journal_path = (dir_ / "r.journal").string();
  {
    Journal journal(options.journal_path, 0, 0);
    journal.append(admit_line("web"));
    journal.append(tick_line(0, R"({"web":1.0})"));
  }
  {
    Arbiter arbiter(config);
    const RecoveryReport report = recover_state(config, options, arbiter);
    EXPECT_EQ(report.mode, RecoveryMode::kJournalReplay);
    EXPECT_EQ(report.replayed, 2u);
    EXPECT_EQ(arbiter.next_slot(), 1u);
    EXPECT_EQ(arbiter.app_count(), 1u);
  }

  // A checkpoint claiming more entries than the journal holds is refused —
  // the journal is the source of truth.
  options.checkpoint_path = (dir_ / "r.ckpt").string();
  {
    Arbiter donor(config);
    donor.handle(parse_message(admit_line("web")));
    write_checkpoint(options.checkpoint_path, donor, 99);
    Arbiter arbiter(config);
    const RecoveryReport report = recover_state(config, options, arbiter);
    EXPECT_EQ(report.mode, RecoveryMode::kJournalReplay);
    EXPECT_EQ(report.checkpoint_error, "checkpoint is ahead of the journal");
    EXPECT_EQ(report.replayed, 2u);
  }

  // Without a journal the same checkpoint is the sole source of truth and
  // is loaded regardless of the journal count it recorded.
  {
    DaemonOptions only;
    only.checkpoint_path = options.checkpoint_path;
    Arbiter arbiter(config);
    const RecoveryReport report = recover_state(config, only, arbiter);
    EXPECT_EQ(report.mode, RecoveryMode::kCheckpointOnly);
    EXPECT_TRUE(report.checkpoint_error.empty());
    EXPECT_EQ(report.replayed, 0u);
    EXPECT_EQ(arbiter.app_count(), 1u);
  }
}

TEST_F(DaemonTest, StatsVerbIsFramedAndNeverJournaled) {
  DaemonOptions options;
  options.journal_path = dir_ / "stats.journal";
  DaemonCore core(small_config(), options);
  (void)core.process_line(admit_line("web"), false);
  (void)core.process_line(tick_line(0, R"({"web":1.0})"), false);
  const std::uint64_t journaled = core.journal_entries();

  // Answered even while shedding: stats is pure observability, never
  // optional work, and a read must not grow the journal.
  const DaemonCore::Result result =
      core.process_line(R"({"type":"stats","id":"s-1"})", true);
  ASSERT_EQ(result.replies.size(), 2u);
  EXPECT_EQ(type_of(result.replies[0]), "stats");
  EXPECT_EQ(type_of(result.replies[1]), "end");
  EXPECT_EQ(json::parse(result.replies[1]).at("id").as_string(), "s-1");
  EXPECT_EQ(core.journal_entries(), journaled);

  const json::Value stats = json::parse(result.replies[0]);
  EXPECT_EQ(stats.at("slot").as_number(), 1.0);
  EXPECT_EQ(stats.at("apps").as_number(), 1.0);
  EXPECT_EQ(stats.at("journal_entries").as_number(),
            static_cast<double>(journaled));
  EXPECT_GE(stats.at("tick_latency_seconds").at("count").as_number(), 0.0);
  EXPECT_GE(stats.at("admitted").as_number(), 1.0);
  EXPECT_TRUE(stats.at("alerts").as_array().empty());
}

// A requirement the admission refuses is named by its own message: the
// reply carries no source path or line of the build that checked it, so its
// bytes do not depend on where the daemon was built.
TEST_F(DaemonTest, BadValueDetailNamesTheRequirementNotTheSource) {
  DaemonCore core(small_config(), DaemonOptions{});
  std::string profile = "[1";
  for (std::size_t s = 1; s < kWeekSlots; ++s) profile += ",1";
  profile += "]";
  const struct {
    const char* fields;
    const char* detail;
  } cases[] = {{R"("ulow":0.9,"uhigh":0.5)", "U_low must be < U_high"},
               {R"("m":0)", "M must be in (0, 100]"}};
  for (const auto& c : cases) {
    const std::string line = R"({"type":"admit","app":"web",)" +
                             std::string(c.fields) + R"(,"profile":)" +
                             profile + "}";
    const DaemonCore::Result r = core.process_line(line, false);
    ASSERT_EQ(r.replies.size(), 1u);
    const json::Value v = json::parse(r.replies[0]);
    EXPECT_EQ(v.at("code").as_string(), "bad_value") << c.fields;
    const std::string detail = v.at("detail").as_string();
    EXPECT_EQ(detail, c.detail) << c.fields;
    EXPECT_EQ(detail.find('/'), std::string::npos) << detail;
    EXPECT_EQ(detail.find(".cpp:"), std::string::npos) << detail;
  }
  EXPECT_EQ(core.arbiter().app_count(), 0u);
}

// An allocation the admission engine cannot sum exactly — its peaks past
// 2^33 CPUs — is the client's input out of domain: a typed bad_value reply
// that registers nothing, journals nothing, and leaves every later reply
// as it would have been.
TEST_F(DaemonTest, OutOfRangeAdmissionGetsBadValueAndLeavesNoTrace) {
  std::string flat = R"({"type":"admit","app":"flat","profile":[1e12)";
  for (std::size_t s = 1; s < kWeekSlots; ++s) flat += ",1e12";
  flat += "]}";
  // At M = 100% nothing is capped: the 5e9 spike allocates 1e10 CPUs.
  std::string spike = R"({"type":"admit","app":"spike","m":100,"profile":[1)";
  for (std::size_t s = 1; s < kWeekSlots; ++s) spike += s == 40 ? ",5e9" : ",1";
  spike += "]}";

  DaemonOptions options;
  options.journal_path = dir_ / "range.journal";
  DaemonCore core(small_config(), options);
  DaemonCore reference(small_config(), DaemonOptions{});
  const auto both = [&](const std::string& line) {
    EXPECT_EQ(core.process_line(line, false).replies,
              reference.process_line(line, false).replies)
        << line;
  };
  both(admit_line("web"));
  both(tick_line(0, R"({"web":1.0})"));
  const std::uint64_t journaled = core.journal_entries();

  for (const std::string& line : {flat, spike}) {
    const DaemonCore::Result r = core.process_line(line, false);
    ASSERT_EQ(r.replies.size(), 1u);
    const json::Value v = json::parse(r.replies[0]);
    EXPECT_EQ(v.at("type").as_string(), "error");
    EXPECT_EQ(v.at("code").as_string(), "bad_value");
    EXPECT_EQ(core.journal_entries(), journaled);
  }

  both(admit_line("db"));
  both(tick_line(1, R"({"web":1.0,"db":1.2})"));
  EXPECT_EQ(core.journal_entries(), journaled + 2);
  EXPECT_EQ(core.arbiter().app_count(), 2u);
  EXPECT_EQ(core.arbiter().summary(), reference.arbiter().summary());
}

TEST_F(DaemonTest, AdmissionPastTheSearchRangeGetsBadValueAndKeepsServing) {
  // On 1e6-CPU servers at 5-minute slots, a 5-week profile (10,080 slots)
  // lifts capacity times length to 2^33 or more, which the capacity search
  // refuses; a 1-week profile stays inside.
  ServeConfig config;
  config.servers = 2;
  config.server_cpus = 1e6;
  constexpr std::size_t kWeek = 7 * 288;
  const auto admit = [](const std::string& app, std::size_t slots) {
    std::string line = R"({"type":"admit","app":")" + app + R"(","profile":[1)";
    for (std::size_t i = 1; i < slots; ++i) line += ",1";
    return line + "]}\n";
  };
  const auto run = [&](const std::string& input, const DaemonOptions& opts) {
    std::istringstream in(input);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_daemon(config, opts, in, out, err), 0) << err.str();
    return reply_lines(out);
  };
  const std::string rest = admit("web", kWeek) +
                           tick_line(0, R"({"web":1.0})") + "\n" +
                           tick_line(1, R"({"web":2.5})") + "\n" +
                           R"({"type":"shutdown"})" + "\n";

  DaemonOptions options;
  options.journal_path = dir_ / "range.journal";
  std::vector<std::string> lines =
      run(admit("long", 5 * kWeek) + rest, options);
  const std::vector<std::string> reference = run(rest, DaemonOptions{});
  ASSERT_EQ(lines.size(), reference.size() + 1);
  EXPECT_EQ(json::parse(lines[1]).at("code").as_string(), "bad_value");
  // Every later reply is the reference daemon's, byte for byte.
  lines.erase(lines.begin() + 1);
  EXPECT_EQ(lines, reference);
  EXPECT_EQ(type_of(reference[1]), "admission");
  // The journal holds web's admission and the two ticks, nothing more.
  const std::vector<std::string> recovered = run("", options);
  ASSERT_FALSE(recovered.empty());
  EXPECT_EQ(json::parse(recovered[0]).at("replayed").as_number(), 3.0);
}

TEST_F(DaemonTest, AdmissionRejectStormFiresBurnAlert) {
  DaemonCore core(small_config(), DaemonOptions{});
  const DaemonCore::Result ok = core.process_line(admit_line("web"), false);
  ASSERT_FALSE(ok.replies.empty());
  EXPECT_NE(ok.replies.front().find("\"decision\":\"accepted\""),
            std::string::npos);
  // Advance a slot so the storm's window has the healthy accept as its
  // baseline — a burn window measures deltas against the previous slot.
  (void)core.process_line(tick_line(0, R"({"web":1.0})"), false);
  EXPECT_EQ(core.active_alert_count(), 0u);

  // A profile demanding 100 cpus per slot on a 16-cpu pool is always
  // rejected; with 60-minute slots both fast-rule windows collapse to one
  // slot, so a reject storm one slot after the accept pushes the admission
  // stream's bad fraction far past 14.4x the 1% budget.
  for (int i = 0; i < 8; ++i) {
    std::string line = R"({"type":"admit","app":"hog)" + std::to_string(i) +
                       R"(","profile":[100)";
    for (std::size_t s = 1; s < kWeekSlots; ++s) line += ",100";
    line += "]}";
    const DaemonCore::Result r = core.process_line(line, false);
    ASSERT_FALSE(r.replies.empty());
    EXPECT_NE(r.replies.front().find("\"decision\":\"rejected\""),
              std::string::npos);
  }
  EXPECT_GT(core.active_alert_count(), 0u);
  const std::vector<obs::BurnAlert> admission =
      core.admission_burn().active_alerts();
  ASSERT_FALSE(admission.empty());
  EXPECT_EQ(admission.front().rule, "fast");
  EXPECT_EQ(core.slo_burn().active_count(), 0u);

  const json::Value stats = json::parse(core.stats_reply());
  const auto& alerts = stats.at("alerts").as_array();
  ASSERT_FALSE(alerts.empty());
  bool admission_alert = false;
  for (const json::Value& a : alerts) {
    if (a.at("stream").as_string() != "admission") continue;
    admission_alert = true;
    EXPECT_GE(a.at("burn_short").as_number(), a.at("threshold").as_number());
    if (a.at("rule").as_string() == "fast") {
      EXPECT_EQ(a.at("severity").as_string(), "critical");
    }
  }
  EXPECT_TRUE(admission_alert);
}

}  // namespace
}  // namespace ropus::serve
