// The arbiter's determinism contract: replies are a pure function of the
// accepted-message sequence, duplicates re-emit cached bytes, rejected
// inputs change no state, and save/load reproduces the verdict stream
// byte for byte.
#include "serve/arbiter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"

namespace ropus::serve {
namespace {

constexpr std::size_t kWeekSlots = 7 * 24;  // 60-minute slots

/// A small pool: hourly slots keep the per-app translation tiny, so every
/// test runs in milliseconds.
ServeConfig small_config() {
  ServeConfig config;
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 2;
  config.server_cpus = 8.0;
  config.max_slot_gap = 24;
  return config;
}

std::string admit_line(const std::string& app,
                       const std::vector<double>& profile,
                       const std::string& extra = "") {
  std::string line = R"({"type":"admit","app":")" + app + R"(","profile":[)";
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(profile[i]);
  }
  line += "]";
  if (!extra.empty()) line += "," + extra;
  line += "}";
  return line;
}

std::string tick_line(std::size_t slot, const std::string& demand) {
  return R"({"type":"tick","slot":)" + std::to_string(slot) +
         R"(,"demand":)" + demand + "}";
}

std::vector<std::string> drive(Arbiter& arbiter, const std::string& line,
                               bool* state_changed = nullptr) {
  return arbiter.handle(parse_message(line), state_changed);
}

/// save_state's payload with each profile named by its position, and the
/// texts those names stand for: a checkpoint round trip without the files.
struct SavedState {
  std::string payload;
  std::vector<std::shared_ptr<const std::string>> profiles;
};

SavedState save(const Arbiter& arbiter) {
  SavedState saved;
  std::vector<std::string> names;
  for (const Arbiter::Profile& profile : arbiter.profiles()) {
    names.push_back(std::to_string(saved.profiles.size()));
    saved.profiles.push_back(profile.text);
  }
  json::Writer w;
  arbiter.save_state(w, names);
  saved.payload = std::move(w).str();
  return saved;
}

void load(Arbiter& arbiter, const SavedState& saved) {
  arbiter.load_state(json::parse(saved.payload),
                     [&saved](const std::string& name) {
                       return saved.profiles.at(std::stoul(name));
                     });
}

ProtocolError rejection_code(Arbiter& arbiter, const std::string& line) {
  try {
    (void)drive(arbiter, line);
  } catch (const ProtocolViolation& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected ProtocolViolation for: " << line;
  return ProtocolError::kMalformed;
}

TEST(ArbiterAdmit, AcceptsAndRefusesDuplicates) {
  Arbiter arbiter(small_config());
  bool changed = false;
  const std::vector<std::string> replies =
      drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)),
            &changed);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(changed);
  const json::Value v = json::parse(replies[0]);
  EXPECT_EQ(v.at("type").as_string(), "admission");
  EXPECT_EQ(v.at("app").as_string(), "web");
  EXPECT_EQ(v.at("decision").as_string(), "accepted");
  EXPECT_LT(v.at("host").as_number(), 2.0);
  EXPECT_EQ(arbiter.app_count(), 1u);

  EXPECT_EQ(rejection_code(
                arbiter,
                admit_line("web", std::vector<double>(kWeekSlots, 1.0))),
            ProtocolError::kDuplicateApp);
  EXPECT_EQ(arbiter.app_count(), 1u);
}

TEST(ArbiterAdmit, ProfileMustCoverWholeWeeksAndMatchFleet) {
  Arbiter arbiter(small_config());
  EXPECT_EQ(rejection_code(arbiter,
                           admit_line("a", std::vector<double>(10, 1.0))),
            ProtocolError::kBadValue);
  drive(arbiter, admit_line("a", std::vector<double>(kWeekSlots, 1.0)));
  EXPECT_EQ(rejection_code(
                arbiter,
                admit_line("b", std::vector<double>(2 * kWeekSlots, 1.0))),
            ProtocolError::kBadValue);
  EXPECT_EQ(arbiter.app_count(), 1u);
}

TEST(ArbiterAdmit, OversizedWorkloadRejectedWithoutStateChange) {
  ServeConfig config = small_config();
  config.servers = 1;
  config.server_cpus = 2.0;
  Arbiter arbiter(config);
  bool changed = true;
  const std::vector<std::string> replies = drive(
      arbiter, admit_line("huge", std::vector<double>(kWeekSlots, 50.0)),
      &changed);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(changed);
  const json::Value v = json::parse(replies[0]);
  EXPECT_EQ(v.at("decision").as_string(), "rejected");
  EXPECT_FALSE(v.at("reason").as_string().empty());
  EXPECT_EQ(arbiter.app_count(), 0u);
}

TEST(ArbiterAdmit, RenegotiatesToWeakerBandWhenStrictDoesNotFit) {
  // A mostly-flat profile with a short peak: at M=100 the peak must be
  // acceptable (alloc ~ peak/u_high); at the renegotiated M=90 those few
  // slots may run degraded (alloc ~ peak/u_degr), which fits the server.
  ServeConfig config = small_config();
  config.servers = 1;
  config.server_cpus = 64.0;  // probes must fit both bands comfortably
  std::vector<double> profile(kWeekSlots, 1.0);
  // Isolated one-slot peaks: each degraded epoch stays within the
  // renegotiated T_degr of 120 minutes.
  for (std::size_t i = 0; i < 4; ++i) profile[40 + 20 * i] = 8.0;

  // Find a capacity between the strict and renegotiated requirements so the
  // test tracks the translation rather than hard-coding its output.
  double strict_need = 0.0;
  double weak_need = 0.0;
  {
    Arbiter probe(config);
    const json::Value strict = json::parse(
        drive(probe, admit_line("probe-strict", profile, R"("m":100)"))[0]);
    ASSERT_EQ(strict.at("decision").as_string(), "accepted");
    strict_need =
        config.server_cpus * (1.0 - strict.at("headroom").as_number());
  }
  {
    Arbiter probe(config);
    const json::Value weak = json::parse(drive(
        probe,
        admit_line("probe-weak", profile, R"("m":90,"tdegr":120)"))[0]);
    ASSERT_EQ(weak.at("decision").as_string(), "accepted");
    weak_need = config.server_cpus * (1.0 - weak.at("headroom").as_number());
  }
  ASSERT_LT(weak_need, strict_need)
      << "weaker band should need less capacity";

  config.server_cpus = (strict_need + weak_need) / 2.0;
  config.admission.renegotiate_m = 90.0;
  config.admission.renegotiate_tdegr = 120.0;
  Arbiter arbiter(config);
  bool changed = false;
  const json::Value v = json::parse(
      drive(arbiter, admit_line("web", profile, R"("m":100)"), &changed)[0]);
  EXPECT_EQ(v.at("decision").as_string(), "renegotiated");
  EXPECT_DOUBLE_EQ(v.at("m").as_number(), 90.0);
  EXPECT_DOUBLE_EQ(v.at("tdegr").as_number(), 120.0);
  EXPECT_TRUE(changed);
  EXPECT_EQ(arbiter.app_count(), 1u);
}

TEST(ArbiterTick, VerdictReportsEveryAppAndUnknownNames) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, admit_line("db", std::vector<double>(kWeekSlots, 2.0)));

  bool changed = false;
  const std::vector<std::string> replies = drive(
      arbiter, tick_line(0, R"({"web":1.5,"db":null,"ghost":1.0})"), &changed);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(changed);
  const json::Value v = json::parse(replies[0]);
  EXPECT_EQ(v.at("type").as_string(), "verdict");
  EXPECT_EQ(v.at("slot").as_number(), 0.0);
  const auto& apps = v.at("apps").as_array();
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].at("app").as_string(), "web");
  EXPECT_EQ(apps[0].at("telemetry").as_string(), "ok");
  EXPECT_DOUBLE_EQ(apps[0].at("demand").as_number(), 1.5);
  EXPECT_GT(apps[0].at("granted").as_number(), 0.0);
  EXPECT_EQ(apps[1].at("telemetry").as_string(), "missing");
  EXPECT_EQ(v.at("unknown_apps").as_number(), 1.0);
  EXPECT_EQ(arbiter.next_slot(), 1u);
}

TEST(ArbiterTick, DuplicateOfLatestSlotReEmitsCachedBytes) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  const std::vector<std::string> first =
      drive(arbiter, tick_line(0, R"({"web":1.5})"));
  bool changed = true;
  // Even a resend with different demand re-emits the judged verdict — the
  // slot was already decided; the client is retrying a lost reply.
  const std::vector<std::string> second =
      drive(arbiter, tick_line(0, R"({"web":9.9})"), &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arbiter.next_slot(), 1u);
}

TEST(ArbiterTick, StaleSlotRejectedWithoutStateChange) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, tick_line(0, R"({"web":1.0})"));
  drive(arbiter, tick_line(1, R"({"web":1.0})"));
  drive(arbiter, tick_line(2, R"({"web":1.0})"));
  EXPECT_EQ(rejection_code(arbiter, tick_line(1, R"({"web":1.0})")),
            ProtocolError::kStaleSlot);
  EXPECT_EQ(arbiter.next_slot(), 3u);
  // The stream continues unharmed after the rejected resend.
  const json::Value v =
      json::parse(drive(arbiter, tick_line(3, R"({"web":1.0})"))[0]);
  EXPECT_EQ(v.at("slot").as_number(), 3.0);
}

TEST(ArbiterTick, ForwardGapFilledAsMissingTelemetry) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, tick_line(0, R"({"web":1.0})"));
  const std::vector<std::string> replies =
      drive(arbiter, tick_line(3, R"({"web":1.0})"));
  ASSERT_EQ(replies.size(), 3u);  // slots 1, 2 (fillers) and 3
  for (std::size_t i = 0; i < 2; ++i) {
    const json::Value filler = json::parse(replies[i]);
    EXPECT_EQ(filler.at("slot").as_number(), static_cast<double>(i + 1));
    EXPECT_TRUE(filler.at("filler").as_bool());
    EXPECT_EQ(filler.at("apps").as_array()[0].at("telemetry").as_string(),
              "missing");
  }
  const json::Value real = json::parse(replies[2]);
  EXPECT_EQ(real.at("slot").as_number(), 3.0);
  EXPECT_EQ(real.find("filler"), nullptr);
  EXPECT_EQ(arbiter.next_slot(), 4u);

  EXPECT_EQ(rejection_code(arbiter, tick_line(4 + 25, R"({"web":1.0})")),
            ProtocolError::kSlotGapTooLarge);
  EXPECT_EQ(arbiter.next_slot(), 4u);
}

TEST(ArbiterDepart, ReleasesCapacityForFutureAdmissions) {
  ServeConfig config = small_config();
  config.servers = 1;
  config.server_cpus = 4.0;
  Arbiter arbiter(config);
  // Self-calibrating: admit identical apps until the pool refuses one, so
  // the test does not hard-code the translation's per-app allocation.
  const std::vector<double> profile(kWeekSlots, 1.2);
  std::size_t fitted = 0;
  for (; fitted < 16; ++fitted) {
    const json::Value v = json::parse(
        drive(arbiter,
              admit_line("app" + std::to_string(fitted), profile))[0]);
    if (v.at("decision").as_string() == "rejected") break;
  }
  ASSERT_GT(fitted, 0u);   // at least one fits
  ASSERT_LT(fitted, 16u);  // the pool is finite
  EXPECT_EQ(arbiter.app_count(), fitted);

  bool changed = false;
  const std::vector<std::string> replies =
      drive(arbiter, R"({"type":"depart","app":"app0"})", &changed);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(changed);
  const json::Value departure = json::parse(replies[0]);
  EXPECT_EQ(departure.at("type").as_string(), "departure");
  EXPECT_EQ(departure.at("app").as_string(), "app0");
  EXPECT_GT(departure.at("released_peak").as_number(), 0.0);
  EXPECT_EQ(departure.find("evicted"), nullptr);
  EXPECT_EQ(arbiter.app_count(), fitted - 1);
  EXPECT_EQ(arbiter.departed_count(), 1u);

  // The released capacity is immediately admittable again: the admission
  // that was just refused now succeeds.
  const json::Value retry = json::parse(drive(
      arbiter, admit_line("app" + std::to_string(fitted), profile))[0]);
  EXPECT_EQ(retry.at("decision").as_string(), "accepted");
  EXPECT_EQ(arbiter.app_count(), fitted);
}

TEST(ArbiterDepart, EvictFlagsTheReplyAndUnknownAppIsRejected) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  const json::Value v = json::parse(
      drive(arbiter, R"({"type":"evict","app":"web"})")[0]);
  EXPECT_EQ(v.at("type").as_string(), "departure");
  EXPECT_TRUE(v.at("evicted").as_bool());
  EXPECT_EQ(arbiter.app_count(), 0u);

  EXPECT_EQ(rejection_code(arbiter, R"({"type":"depart","app":"web"})"),
            ProtocolError::kUnknownApp);
  EXPECT_EQ(arbiter.departed_count(), 1u);
}

TEST(ArbiterDepart, DepartedAppIdsAreNeverReused) {
  // The watchdog keys per-app accumulators by numeric id; a reused id
  // would silently inherit a stranger's alert history. Departure + a new
  // admission must therefore mint a fresh id.
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("a", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, admit_line("b", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, R"({"type":"depart","app":"a"})");
  drive(arbiter, admit_line("c", std::vector<double>(kWeekSlots, 1.0)));

  const json::Value state = json::parse(save(arbiter).payload);
  const auto& apps = state.at("apps").as_array();
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].at("name").as_string(), "b");
  EXPECT_EQ(apps[0].at("id").as_number(), 1.0);
  EXPECT_EQ(apps[1].at("name").as_string(), "c");
  EXPECT_EQ(apps[1].at("id").as_number(), 2.0);  // not a's freed 0
}

TEST(ArbiterDepart, TickAfterDepartureJudgesOnlySurvivors) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  drive(arbiter, admit_line("db", std::vector<double>(kWeekSlots, 2.0)));
  drive(arbiter, tick_line(0, R"({"web":1.0,"db":2.0})"));
  drive(arbiter, R"({"type":"depart","app":"web"})");
  const json::Value v = json::parse(
      drive(arbiter, tick_line(1, R"({"web":1.0,"db":2.0})"))[0]);
  const auto& apps = v.at("apps").as_array();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].at("app").as_string(), "db");
  // The departed app's reading now counts as unknown.
  EXPECT_EQ(v.at("unknown_apps").as_number(), 1.0);
}

TEST(ArbiterIdCache, RetriedIdReturnsOriginalBytesWithoutReapplying) {
  Arbiter arbiter(small_config());
  const std::string admit =
      R"({"type":"admit","id":"r1","app":"web","profile":[)" +
      [] {
        std::string p = "1.0";
        for (std::size_t i = 1; i < kWeekSlots; ++i) p += ",1.0";
        return p;
      }() +
      "]}";
  const std::vector<std::string> first = drive(arbiter, admit);
  bool changed = true;
  const std::vector<std::string> replay = drive(arbiter, admit, &changed);
  EXPECT_EQ(first, replay);
  EXPECT_FALSE(changed);  // a cache hit must not be re-journaled
  EXPECT_EQ(arbiter.app_count(), 1u);

  // Ticks cache too: a retried tick id re-emits even after the slot moved
  // past the single-slot duplicate window.
  const std::vector<std::string> t0 = drive(
      arbiter, R"({"type":"tick","id":"t0","slot":0,"demand":{"web":1.0}})");
  drive(arbiter, tick_line(1, R"({"web":1.0})"));
  drive(arbiter, tick_line(2, R"({"web":1.0})"));
  EXPECT_EQ(drive(arbiter,
                  R"({"type":"tick","id":"t0","slot":0,"demand":{"web":1.0}})"),
            t0);
  EXPECT_EQ(arbiter.next_slot(), 3u);
}

TEST(ArbiterIdCache, CacheIsBoundedFifo) {
  Arbiter arbiter(small_config());
  drive(arbiter, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  const std::string first_id_line =
      R"({"type":"tick","id":"tick-0","slot":0,"demand":{"web":1.0}})";
  drive(arbiter, first_id_line);
  // Push kIdCacheCapacity more identified ticks: "tick-0" falls out.
  for (std::size_t i = 1; i <= Arbiter::kIdCacheCapacity; ++i) {
    drive(arbiter, R"({"type":"tick","id":"tick-)" + std::to_string(i) +
                       R"(","slot":)" + std::to_string(i) +
                       R"(,"demand":{"web":1.0}})");
  }
  // The evicted id is no longer answered from the cache; the slot is stale
  // now, so the arbiter rejects instead of replaying — proving the miss.
  EXPECT_EQ(rejection_code(arbiter, first_id_line), ProtocolError::kStaleSlot);
}

TEST(ArbiterIdCache, SurvivesSaveLoad) {
  const ServeConfig config = small_config();
  Arbiter original(config);
  drive(original, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  const std::string line =
      R"({"type":"tick","id":"t0","slot":0,"demand":{"web":1.3}})";
  const std::vector<std::string> replies = drive(original, line);
  drive(original, tick_line(1, R"({"web":1.0})"));

  Arbiter restored(config);
  load(restored, save(original));
  bool changed = true;
  EXPECT_EQ(drive(restored, line, &changed), replies);
  EXPECT_FALSE(changed);
}

/// Drives `line` through `persistent` and, as the stateless reference,
/// through a fresh arbiter restored from `persistent`'s state just before
/// the line: load_state drops the admission engine, so the fresh arbiter
/// rebuilds its per-server sums from the restored fleet, while the
/// persistent one carries sums maintained across every earlier admission,
/// departure and renegotiation. The replies must agree byte for byte.
std::vector<std::string> drive_both(Arbiter& persistent,
                                    const std::string& line) {
  Arbiter fresh(persistent.config());
  load(fresh, save(persistent));
  const std::vector<std::string> replies = drive(persistent, line);
  EXPECT_EQ(replies, drive(fresh, line)) << line;
  EXPECT_EQ(persistent.summary(), fresh.summary()) << line;
  return replies;
}

// The persistent admission engine is a pure cache over the admitted fleet:
// across the whole repertoire — accepts, rejects, departures that release
// exact capacity residues, re-admissions into the freed headroom, ticks,
// and a checkpoint round-trip — it answers exactly as an engine rebuilt
// from scratch.
TEST(ArbiterAdmissionPath, DeltaAndBatchPathsAreByteIdentical) {
  ServeConfig config = small_config();
  config.servers = 1;
  config.server_cpus = 8.0;
  Arbiter arbiter(config);
  const auto lockstep = [&](const std::string& line) {
    return drive_both(arbiter, line);
  };

  // Fill the pool until an admission is refused, so accepted AND rejected
  // replies both flow through the comparison (self-calibrating, like
  // ArbiterDepart.ReleasesCapacityForFutureAdmissions).
  const std::vector<double> profile(kWeekSlots, 1.2);
  std::size_t fitted = 0;
  bool saw_reject = false;
  for (; fitted < 32 && !saw_reject; ++fitted) {
    const json::Value v = json::parse(
        lockstep(admit_line("app" + std::to_string(fitted), profile))[0]);
    saw_reject = v.at("decision").as_string() == "rejected";
  }
  ASSERT_TRUE(saw_reject) << "pool never filled; the reject path went untested";
  ASSERT_GE(fitted, 3u) << "need at least two admitted apps to churn";

  lockstep(tick_line(0, R"({"app0":1.4,"app1":0.7})"));
  // Departure and eviction must release the same exact capacity residue in
  // the persistent engine as a rebuild from the remaining fleet observes.
  lockstep(R"({"type":"depart","app":"app1"})");
  lockstep(R"({"type":"evict","app":"app0"})");
  lockstep(admit_line("late", profile));
  lockstep(tick_line(1, R"({"late":1.0,"app2":2.0})"));

  // A checkpoint round-trip mid-stream: the restored arbiter rebuilds its
  // engine at the next admission and keeps answering identically.
  Arbiter restored(config);
  load(restored, save(arbiter));
  const std::string readmit = admit_line("post-restore", profile);
  EXPECT_EQ(drive_both(restored, readmit), drive(arbiter, readmit));
  const std::string t2 = tick_line(2, R"({"late":1.2,"post-restore":0.9})");
  EXPECT_EQ(drive_both(restored, t2), drive(arbiter, t2));
  EXPECT_EQ(restored.summary(), arbiter.summary());
}

TEST(ArbiterAdmissionPath, RenegotiationMatchesAcrossPaths) {
  // A renegotiated admission probes the engine twice (strict band, then
  // weakened band) with a register/unregister between — the persistent
  // engine must keep no residue from the failed strict probe. Calibration
  // mirrors ArbiterAdmit.RenegotiatesToWeakerBandWhenStrictDoesNotFit.
  ServeConfig config = small_config();
  config.servers = 1;
  config.server_cpus = 64.0;
  std::vector<double> profile(kWeekSlots, 1.0);
  for (std::size_t i = 0; i < 4; ++i) profile[40 + 20 * i] = 8.0;

  double strict_need = 0.0;
  double weak_need = 0.0;
  {
    Arbiter probe(config);
    const json::Value strict = json::parse(
        drive(probe, admit_line("probe-strict", profile, R"("m":100)"))[0]);
    ASSERT_EQ(strict.at("decision").as_string(), "accepted");
    strict_need =
        config.server_cpus * (1.0 - strict.at("headroom").as_number());
  }
  {
    Arbiter probe(config);
    const json::Value weak = json::parse(drive(
        probe,
        admit_line("probe-weak", profile, R"("m":90,"tdegr":120)"))[0]);
    ASSERT_EQ(weak.at("decision").as_string(), "accepted");
    weak_need = config.server_cpus * (1.0 - weak.at("headroom").as_number());
  }
  ASSERT_LT(weak_need, strict_need);

  config.server_cpus = (strict_need + weak_need) / 2.0;
  config.admission.renegotiate_m = 90.0;
  config.admission.renegotiate_tdegr = 120.0;
  Arbiter arbiter(config);
  const std::vector<std::string> a =
      drive_both(arbiter, admit_line("web", profile, R"("m":100)"));
  EXPECT_EQ(json::parse(a[0]).at("decision").as_string(), "renegotiated");

  // A follow-up admission exercises the engine state left behind by the
  // renegotiated accept (registered under the weakened band only).
  drive_both(arbiter, admit_line("tail", profile, R"("m":90,"tdegr":120)"));
}

TEST(ArbiterState, SaveLoadReproducesVerdictBytes) {
  const ServeConfig config = small_config();
  Arbiter original(config);
  drive(original, admit_line("web", std::vector<double>(kWeekSlots, 1.0)));
  drive(original, admit_line("db", std::vector<double>(kWeekSlots, 2.0),
                             R"("m":95,"revenue":2)"));
  // A varied prefix: present, missing, corrupt readings and a gap.
  drive(original, tick_line(0, R"({"web":1.2,"db":2.5})"));
  drive(original, tick_line(1, R"({"web":null,"db":"bogus"})"));
  drive(original, tick_line(4, R"({"web":0.8,"db":1.9})"));

  const SavedState blob = save(original);

  Arbiter restored(config);
  load(restored, blob);
  EXPECT_EQ(restored.next_slot(), original.next_slot());
  EXPECT_EQ(restored.app_count(), original.app_count());

  // The restored arbiter answers a duplicate of the last tick from its
  // cache — byte-identical to the original's reply.
  EXPECT_EQ(drive(restored, tick_line(4, R"({"web":0.8,"db":1.9})")),
            drive(original, tick_line(4, R"({"web":0.8,"db":1.9})")));

  // And the continued streams stay byte-identical: verdicts and summary.
  for (std::size_t slot = 5; slot <= 9; ++slot) {
    const std::string line =
        tick_line(slot, slot % 2 == 0 ? R"({"web":3.0,"db":0.5})"
                                      : R"({"web":0.4})");
    EXPECT_EQ(drive(original, line), drive(restored, line)) << "slot " << slot;
  }
  EXPECT_EQ(original.summary(), restored.summary());

  // Serializing the restored arbiter reproduces the same blob, and the
  // restored apps keep the very profile texts they were restored from.
  // (States were advanced identically above, so re-save both for a fair
  // byte comparison.)
  const SavedState again = save(restored);
  EXPECT_EQ(again.payload, save(original).payload);
  EXPECT_EQ(again.profiles, blob.profiles);
}

}  // namespace
}  // namespace ropus::serve
