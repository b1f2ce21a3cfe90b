#include "serve/daemon.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/signals.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace ropus::serve {
namespace {

/// State shared with the reader thread. Owned by shared_ptr so the thread
/// can be detached safely when it is blocked on a stream that will only
/// unblock at process exit.
struct Ingest {
  std::mutex mu;
  std::condition_variable cv_push;  // reader waits for queue space
  std::condition_variable cv_pop;   // processor waits for lines
  std::deque<std::string> queue;
  std::size_t capacity = 0;
  bool eof = false;
  bool stop = false;
  std::atomic<bool> done{false};  // reader thread has returned
};

void reader_main(const std::shared_ptr<Ingest>& ingest, std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    std::unique_lock lk(ingest->mu);
    ingest->cv_push.wait(lk, [&ingest] {
      return ingest->queue.size() < ingest->capacity || ingest->stop;
    });
    if (ingest->stop) break;
    ingest->queue.push_back(std::move(line));
    ingest->cv_pop.notify_one();
  }
  {
    std::lock_guard lk(ingest->mu);
    ingest->eof = true;
    ingest->cv_pop.notify_all();
  }
  ingest->done.store(true);
}

/// Strips the "<code>: " prefix ProtocolViolation prepends to its detail.
std::string_view violation_detail(const ProtocolViolation& e) {
  std::string_view what = e.what();
  const std::string_view prefix_end = ": ";
  const std::string_view code = protocol_error_code(e.code());
  if (what.size() > code.size() + prefix_end.size() &&
      what.substr(0, code.size()) == code &&
      what.substr(code.size(), prefix_end.size()) == prefix_end) {
    what.remove_prefix(code.size() + prefix_end.size());
  }
  return what;
}

std::string ok_reply(std::string_view op, std::size_t slot,
                     std::uint64_t journal_entries) {
  json::Writer w;
  w.begin_object();
  w.key("type").value("ok");
  w.key("op").value(op);
  w.key("slot").value(slot);
  w.key("journal_entries").value(static_cast<std::int64_t>(journal_entries));
  w.end_object();
  return w.str();
}

const char* recovery_mode_name(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kFresh: return "fresh";
    case RecoveryMode::kJournalReplay: return "journal";
    case RecoveryMode::kCheckpointAndTail: return "checkpoint+journal";
    case RecoveryMode::kCheckpointOnly: return "checkpoint";
  }
  return "unknown";
}

/// Fault-injection hook for the recovery tests and the chaos drill: when
/// ROPUS_SERVE_CRASH names this point, die as abruptly as kill -9 would
/// (no unwinding, no flushing) so the on-disk interleaving is exactly the
/// one the drill wants to probe. Inert unless the variable is set.
void crash_point(const char* point) {
  const char* want = std::getenv("ROPUS_SERVE_CRASH");
  if (want != nullptr && std::strcmp(want, point) == 0) std::_Exit(137);
}

/// Span name for one request type; literals so the name outlives the span.
const char* request_span_name(MessageType type) {
  switch (type) {
    case MessageType::kTick: return "serve.tick";
    case MessageType::kAdmit: return "serve.admit";
    case MessageType::kDepart: return "serve.depart";
    case MessageType::kEvict: return "serve.evict";
    case MessageType::kCheckpoint: return "serve.checkpoint";
    case MessageType::kStats: return "serve.stats";
    case MessageType::kShutdown: return "serve.shutdown";
  }
  return "serve.request";
}

/// Per-type envelope latency histogram, cached so the steady state never
/// touches the registry lock.
obs::Histogram& request_histogram(MessageType type) {
  static obs::Histogram* const hists[] = {
      &obs::histogram("serve.request.tick_seconds"),
      &obs::histogram("serve.request.admit_seconds"),
      &obs::histogram("serve.request.depart_seconds"),
      &obs::histogram("serve.request.evict_seconds"),
      &obs::histogram("serve.request.checkpoint_seconds"),
      &obs::histogram("serve.request.stats_seconds"),
      &obs::histogram("serve.request.shutdown_seconds"),
  };
  const auto index = static_cast<std::size_t>(type);
  static_assert(std::size(hists) ==
                static_cast<std::size_t>(MessageType::kShutdown) + 1);
  return *hists[index];
}

}  // namespace

std::string best_effort_id(const std::string& line) {
  try {
    const json::Value v = json::parse(line);
    if (v.type() != json::Value::Type::kObject) return {};
    const json::Value* id = v.find("id");
    if (id == nullptr || id->type() != json::Value::Type::kString) return {};
    if (id->as_string().empty() || id->as_string().size() > 128) return {};
    return id->as_string();
  } catch (const Error&) {
    return {};
  }
}

void DaemonOptions::validate() const {
  ROPUS_REQUIRE(checkpoint_every_slots >= 1,
                "checkpoint interval must be >= 1 slot");
  ROPUS_REQUIRE(queue_capacity >= 1, "ingest queue needs capacity >= 1");
  ROPUS_REQUIRE(max_line_bytes >= 2, "line bound must be >= 2 bytes");
  ROPUS_REQUIRE(tick_deadline_ms >= 0.0, "tick deadline must be >= 0");
  ROPUS_REQUIRE(slow_request_ms >= 0.0, "slow-request threshold must be >= 0");
  ROPUS_REQUIRE(!compact_journal ||
                    (!checkpoint_path.empty() && !journal_path.empty()),
                "journal compaction requires both a journal and a "
                "checkpoint path");
}

bool should_shed(std::size_t queue_depth, std::size_t queue_capacity,
                 double last_tick_ms, double deadline_ms) {
  if (queue_depth * 2 > queue_capacity) return true;
  return deadline_ms > 0.0 && last_tick_ms > deadline_ms;
}

RecoveryReport recover_state(const ServeConfig& config,
                             const DaemonOptions& options, Arbiter& arbiter,
                             const ProfileStore* store) {
  RecoveryReport report;
  Journal::Recovered recovered;
  if (!options.journal_path.empty()) {
    recovered = Journal::recover(options.journal_path);
    report.journal_entries = recovered.entries();
    report.journal_base = recovered.base;
    report.journal_valid_bytes = recovered.valid_bytes;
    report.torn_tail = recovered.torn_tail;
  }
  // A compacted journal's first `base` entries exist only inside a
  // checkpoint; without one the state is gone, and pretending otherwise
  // would silently serve wrong verdicts. Refuse loudly instead.
  const auto unreconstructible = [&](const std::string& why) {
    return IoError("journal " + options.journal_path.string() +
                   " was compacted to base " +
                   std::to_string(recovered.base) +
                   " but no checkpoint covers it (" + why +
                   "); state is unreconstructible");
  };
  if (recovered.base > 0 && options.checkpoint_path.empty()) {
    throw unreconstructible("no checkpoint path configured");
  }
  if (recovered.header_corrupt) {
    // The compaction magic is on disk but its header is damaged, so the
    // base — and with it the index of every frame that follows — is
    // unknown. The journal as a whole is unusable; the covering
    // checkpoint is the only usable copy of the state. Restore from it
    // alone (losing at most the entries since the snapshot, like any
    // checkpoint-only recovery), or refuse loudly — never start fresh.
    const auto corrupt_header = [&](const std::string& why) {
      return IoError("journal " + options.journal_path.string() +
                     " has a corrupt compaction header and no usable "
                     "checkpoint covers it (" + why +
                     "); state is unreconstructible");
    };
    if (options.checkpoint_path.empty()) {
      throw corrupt_header("no checkpoint path configured");
    }
    Arbiter candidate(config);
    const CheckpointLoad load =
        load_checkpoint(options.checkpoint_path, candidate, store);
    if (!load.ok) throw corrupt_header(load.error);
    arbiter = std::move(candidate);
    report.mode = RecoveryMode::kCheckpointOnly;
    // The checkpoint's coverage becomes the new base: the Journal
    // constructor re-stamps a fresh header from these counts (valid_bytes
    // 0 keeps nothing of the damaged file).
    report.journal_entries = load.journal_entries;
    report.journal_base = load.journal_entries;
    report.journal_valid_bytes = 0;
    return report;
  }

  std::uint64_t replay_from = 0;  // index into recovered.lines
  if (!options.checkpoint_path.empty()) {
    Arbiter candidate(config);
    const CheckpointLoad load =
        load_checkpoint(options.checkpoint_path, candidate, store);
    if (options.journal_path.empty()) {
      // No journal configured: the checkpoint is the sole source of truth,
      // so a --checkpoint-only daemon still restores its state on restart
      // (losing only the slots since the last snapshot). A missing file is
      // a normal first start, not an error.
      if (load.ok) {
        arbiter = std::move(candidate);
        report.mode = RecoveryMode::kCheckpointOnly;
      } else if (!load.missing) {
        report.checkpoint_error = load.error;
      }
      return report;
    }
    if (!load.ok && recovered.base > 0) {
      throw unreconstructible(load.error);
    }
    if (load.ok && load.journal_entries < recovered.base) {
      // The checkpoint on disk predates the compaction that set this base;
      // the entries between them are in neither file.
      throw unreconstructible(
          "checkpoint covers only " + std::to_string(load.journal_entries) +
          " entries");
    }
    if (load.ok && load.journal_entries <= recovered.entries()) {
      arbiter = std::move(candidate);
      replay_from = load.journal_entries - recovered.base;
      report.mode = RecoveryMode::kCheckpointAndTail;
    } else if (load.ok) {
      // A checkpoint claiming more entries than the journal holds means the
      // journal (the source of truth) lost data; trust only the journal.
      if (recovered.base > 0) {
        throw unreconstructible("checkpoint is ahead of the journal");
      }
      if (recovered.torn_tail && recovered.lines.empty()) {
        // The journal file is non-empty but nothing in it parses: damage
        // at offset zero (e.g. a bit flip in a compacted journal's magic,
        // which makes the file read as an empty v1 journal), not
        // testimony that no entries ever existed. The checkpoint proves
        // accepted state existed — restore from it instead of silently
        // starting fresh. (An intact-but-shorter journal still wins over
        // an ahead checkpoint: that is the branch below.)
        arbiter = std::move(candidate);
        report.mode = RecoveryMode::kCheckpointOnly;
        report.journal_entries = load.journal_entries;
        report.journal_base = load.journal_entries;
        report.journal_valid_bytes = 0;
        return report;
      }
      report.checkpoint_error = "checkpoint is ahead of the journal";
    } else if (!load.missing || !recovered.lines.empty()) {
      // Worth reporting unless it is a missing checkpoint on a fresh start.
      report.checkpoint_error = load.error;
    }
  }
  if (report.mode != RecoveryMode::kCheckpointAndTail &&
      !recovered.lines.empty()) {
    report.mode = RecoveryMode::kJournalReplay;
  }

  for (std::uint64_t i = replay_from; i < recovered.lines.size(); ++i) {
    try {
      const Message msg = parse_message(recovered.lines[i]);
      arbiter.handle(msg);
    } catch (const Error& e) {
      // Only accepted (state-changing) lines are journaled, so replay must
      // not fault; a fault means the journal itself is damaged.
      throw IoError("journal replay failed at entry " +
                    std::to_string(recovered.base + i) + ": " + e.what());
    }
    report.replayed += 1;
  }
  return report;
}

DaemonCore::DaemonCore(const ServeConfig& config, const DaemonOptions& options)
    : options_(options),
      arbiter_(config),
      slo_burn_("slo", config.minutes_per_sample),
      admission_burn_("admission", config.minutes_per_sample) {
  config.validate();
  options_.validate();
  if (!options_.checkpoint_path.empty()) {
    store_ = std::make_unique<ProfileStore>(
        ProfileStore::path_for(options_.checkpoint_path));
  }
  recovery_ = recover_state(config, options_, arbiter_, store_.get());
  // Alerts restored from the checkpoint/journal predate this process;
  // burn tracking starts from the recovered baseline, not from zero, so
  // a restart never re-fires on old history.
  watchdog_alerts_seen_ =
      arbiter_.watchdog().alerts().size() +
      static_cast<std::size_t>(arbiter_.watchdog().alerts_dropped());
  if (!options_.journal_path.empty()) {
    // Opening the journal truncates any torn tail found during recovery;
    // recover_state already parsed the file, so reuse its counts instead
    // of reading it a second time.
    journal_ = std::make_unique<Journal>(
        options_.journal_path, recovery_.journal_valid_bytes,
        recovery_.journal_entries, recovery_.journal_base);
    static obs::Gauge& bytes = obs::gauge("serve.journal.bytes");
    bytes.set(static_cast<double>(journal_->bytes()));
  }
  slots_at_checkpoint_ = arbiter_.next_slot();
}

std::string DaemonCore::ready_line() const {
  json::Writer w;
  w.begin_object();
  w.key("type").value("ready");
  w.key("recovery").value(recovery_mode_name(recovery_.mode));
  w.key("slots").value(arbiter_.next_slot());
  w.key("apps").value(arbiter_.app_count());
  w.key("replayed").value(static_cast<std::int64_t>(recovery_.replayed));
  if (recovery_.torn_tail) w.key("torn_tail").value(true);
  w.end_object();
  return w.str();
}

std::uint64_t DaemonCore::journal_entries() const {
  return journal_ ? journal_->entries() : 0;
}

std::uint64_t DaemonCore::journal_bytes() const {
  return journal_ ? journal_->bytes() : 0;
}

std::uint64_t DaemonCore::journal_tail_frames() const {
  return journal_ ? journal_->tail_frames() : 0;
}

bool DaemonCore::checkpoint_now() {
  if (options_.checkpoint_path.empty()) return false;
  static obs::Histogram& duration =
      obs::histogram("serve.checkpoint.duration_seconds");
  static obs::Counter& checkpoints = obs::counter("serve.checkpoints");
  static obs::Gauge& bytes = obs::gauge("serve.journal.bytes");
  const double started = obs::monotonic_seconds();
  // Profiles first, durable before the snapshot that names them; the
  // store is rewritten only after that snapshot is durable, so every
  // crash leaves a checkpoint whose names all resolve.
  const std::vector<std::string> names = store_->put(arbiter_);
  crash_point("after-profile-store");
  write_snapshot(options_.checkpoint_path, arbiter_, journal_entries(), names);
  crash_point("after-checkpoint");
  if (options_.compact_journal && journal_ != nullptr) {
    static obs::Counter& compactions = obs::counter("serve.compactions");
    static obs::Counter& reclaimed =
        obs::counter("serve.compaction.reclaimed_bytes");
    reclaimed.add(journal_->compact());
    compactions.add();
    crash_point("after-compact");
  }
  store_->collect(names);
  duration.record(obs::monotonic_seconds() - started);
  checkpoints.add();
  if (journal_ != nullptr) bytes.set(static_cast<double>(journal_->bytes()));
  slots_at_checkpoint_ = arbiter_.next_slot();
  return true;
}

DaemonCore::Result DaemonCore::process_line(const std::string& line,
                                            bool shed) {
  Result result;
  if (line.find_first_not_of(" \t\r") == std::string::npos) return result;
  if (line.size() > options_.max_line_bytes) {
    // Deliberately no end marker: the line is not parsed at all, so no id
    // is recovered from it. Clients enforce the bound before sending.
    result.replies.push_back(
        error_reply(ProtocolError::kLineTooLong,
                    "line of " + std::to_string(line.size()) +
                        " bytes exceeds the " +
                        std::to_string(options_.max_line_bytes) +
                        " byte bound"));
    return result;
  }

  // Envelope latency: parse through end-marker, recorded per message type
  // (unparseable lines land in the histogram of their attempted type's
  // fallback, "invalid"). Clock reads are skipped when timing is off.
  const bool timed = obs::timing_enabled();
  const double request_started = timed ? obs::monotonic_seconds() : 0.0;
  MessageType request_type = MessageType::kTick;
  bool request_parsed = false;

  std::string id;
  try {
    const Message msg = parse_message(line);
    id = msg.id;
    request_type = msg.type;
    request_parsed = true;
    // The span carries the client-generated request id, so a client-side
    // trace and the daemon trace join on it end to end.
    obs::ScopedSpan span(request_span_name(msg.type), msg.id);
    const auto started = std::chrono::steady_clock::now();
    bool state_changed = false;
    result.replies = arbiter_.handle(msg, &state_changed);
    // Journal before surfacing any reply: a crash after the journal write
    // but before the reply is re-driven by the client's resend, which the
    // arbiter answers from its duplicate caches — never by double-applying.
    if (state_changed && journal_) {
      journal_->append(line);
      static obs::Gauge& bytes = obs::gauge("serve.journal.bytes");
      bytes.set(static_cast<double>(journal_->bytes()));
      crash_point("after-journal-append");
    }

    switch (msg.type) {
      case MessageType::kTick: {
        last_tick_ms_ = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
        // Feed the SLO burn tracker one point per tick: bad when the
        // watchdog emitted any new alert while handling it. Observing
        // verdicts, never shaping them — the tracker lives entirely in
        // the envelope.
        const std::size_t alerts_now =
            arbiter_.watchdog().alerts().size() +
            static_cast<std::size_t>(arbiter_.watchdog().alerts_dropped());
        const bool bad = alerts_now > watchdog_alerts_seen_;
        watchdog_alerts_seen_ = alerts_now;
        slo_burn_.observe(arbiter_.next_slot(), 1, bad ? 1 : 0);
        // Two triggers: the slot interval since the last checkpoint *this
        // process* took, and the journal tail length. The second is what
        // actually bounds the journal — slots_at_checkpoint_ resets on
        // every restart, so a crash/restart storm with restarts closer
        // together than the interval would otherwise postpone checkpoints
        // (and compaction) indefinitely while the tail keeps growing.
        if (!shed && !options_.checkpoint_path.empty() &&
            (arbiter_.next_slot() - slots_at_checkpoint_ >=
                 options_.checkpoint_every_slots ||
             (options_.compact_journal && journal_ != nullptr &&
              journal_->tail_frames() >= options_.checkpoint_every_slots))) {
          checkpoint_now();
        }
        break;
      }
      case MessageType::kCheckpoint:
        if (options_.checkpoint_path.empty()) {
          result.replies.push_back(error_reply(
              ProtocolError::kBadValue, "daemon runs without a checkpoint path"));
        } else if (shed) {
          result.replies.push_back(
              error_reply(ProtocolError::kOverload,
                          "checkpoint shed under load; retry when the "
                          "queue drains"));
        } else {
          checkpoint_now();
          result.replies.push_back(
              ok_reply("checkpoint", arbiter_.next_slot(), journal_entries()));
        }
        break;
      case MessageType::kStats:
        // Pure read, never journaled or id-cached: the arbiter ignored
        // it, the envelope answers from live state.
        result.replies.push_back(stats_reply());
        break;
      case MessageType::kShutdown:
        result.shutdown = true;
        break;
      case MessageType::kAdmit: {
        // One admission-stream burn point per decision; the decision is
        // read back from the reply the arbiter just produced.
        const bool rejected =
            !result.replies.empty() &&
            result.replies.front().find("\"decision\":\"rejected\"") !=
                std::string::npos;
        admission_burn_.observe(arbiter_.next_slot(), 1, rejected ? 1 : 0);
        break;
      }
      case MessageType::kDepart:
      case MessageType::kEvict:
        break;
    }
  } catch (const ProtocolViolation& e) {
    result.replies.push_back(error_reply(e.code(), violation_detail(e)));
    id = best_effort_id(line);
  }
  // The end marker is a pure function of the input line (id and reply
  // count), so a replayed or retried request frames identically.
  if (!id.empty()) {
    result.replies.push_back(end_reply(id, result.replies.size()));
  }

  if (timed) {
    const double elapsed = obs::monotonic_seconds() - request_started;
    if (request_parsed) {
      request_histogram(request_type).record(elapsed);
    } else {
      static obs::Histogram& invalid =
          obs::histogram("serve.request.invalid_seconds");
      invalid.record(elapsed);
    }
    if (options_.slow_request_ms > 0.0 &&
        elapsed * 1000.0 > options_.slow_request_ms) {
      static obs::Counter& slow = obs::counter("serve.request.slow");
      slow.add();
      static log::Every limit(8, 64);
      if (limit.allow()) {
        ROPUS_LOG(kWarn) << "serve: slow request"
                         << (request_parsed
                                 ? std::string(" type=") +
                                       message_type_name(request_type)
                                 : std::string(" (unparseable)"))
                         << (id.empty() ? std::string()
                                        : " id=" + id)
                         << " took " << elapsed * 1000.0 << " ms (threshold "
                         << options_.slow_request_ms << " ms)";
      }
    }
  }
  return result;
}

std::string DaemonCore::stats_reply() const {
  json::Writer w;
  w.begin_object();
  w.key("type").value("stats");
  w.key("slot").value(arbiter_.next_slot());
  w.key("apps").value(arbiter_.app_count());
  w.key("departed").value(arbiter_.departed_count());
  w.key("theta").value(arbiter_.watchdog().theta());
  w.key("backlog").value(arbiter_.backlog_total());
  w.key("recovery").value(recovery_mode_name(recovery_.mode));
  w.key("journal_entries").value(static_cast<std::int64_t>(journal_entries()));
  w.key("journal_bytes").value(static_cast<std::int64_t>(journal_bytes()));
  w.key("last_tick_ms").value(last_tick_ms_);
  // Admission counters are lifetime-of-process registry values; the
  // arbiter itself only keeps what replay needs.
  w.key("admitted").value(
      static_cast<std::int64_t>(obs::counter("serve.admission.accepted").value()));
  w.key("rejected").value(
      static_cast<std::int64_t>(obs::counter("serve.admission.rejected").value()));
  w.key("renegotiated").value(static_cast<std::int64_t>(
      obs::counter("serve.admission.renegotiated").value()));
  // Delta-evaluation engine health: how the persistent admission engine's
  // work split between probes, verdicts over maintained sums and sum
  // rebuilds. All-zero until the first admission (or after a restore,
  // before the engine is rebuilt).
  w.key("admission_engine").begin_object();
  {
    const sim::IncrementalEvaluator* engine = arbiter_.admission_engine();
    const sim::IncrementalEvaluator::Stats stats =
        engine != nullptr ? engine->stats()
                          : sim::IncrementalEvaluator::Stats{};
    w.key("delta_probes").value(static_cast<std::int64_t>(stats.delta_probes));
    w.key("delta_verdicts").value(
        static_cast<std::int64_t>(stats.delta_verdicts));
    w.key("sum_rebuilds").value(static_cast<std::int64_t>(stats.sum_rebuilds));
  }
  w.end_object();
  const obs::HistogramSnapshot ticks =
      request_histogram(MessageType::kTick).snapshot();
  w.key("tick_latency_seconds").begin_object();
  w.key("count").value(static_cast<std::int64_t>(ticks.count));
  w.key("p50").value(ticks.p50);
  w.key("p95").value(ticks.p95);
  w.key("p99").value(ticks.p99);
  w.key("max").value(ticks.max);
  w.end_object();
  w.key("watchdog_alerts")
      .value(arbiter_.watchdog().alerts().size() +
             static_cast<std::size_t>(arbiter_.watchdog().alerts_dropped()));
  w.key("alerts").begin_array();
  for (const obs::BurnRate* burn : {&slo_burn_, &admission_burn_}) {
    for (const obs::BurnAlert& alert : burn->active_alerts()) {
      w.begin_object();
      w.key("stream").value(alert.stream);
      w.key("rule").value(alert.rule);
      w.key("severity").value(obs::burn_severity_name(alert.severity));
      w.key("since_slot").value(static_cast<std::int64_t>(alert.slot));
      w.key("burn_short").value(alert.burn_short);
      w.key("burn_long").value(alert.burn_long);
      w.key("threshold").value(alert.threshold);
      w.end_object();
    }
  }
  w.end_array();
  // Sampling-profiler state: the `profiler` block that the HTTP listener
  // also splices into /stats.json, so `top` can read either.
  w.key("profiler").raw(obs::prof::state_json());
  w.end_object();
  return w.str();
}

int run_daemon(const ServeConfig& config, const DaemonOptions& options,
               std::istream& in, std::ostream& out, std::ostream& err) {
  DaemonCore core(config, options);
  const RecoveryReport& recovery = core.recovery();
  if (recovery.torn_tail) {
    err << "serve: journal had a torn tail; truncated to "
        << recovery.journal_entries << " entries\n";
  }
  if (!recovery.checkpoint_error.empty()) {
    err << "serve: checkpoint unused (" << recovery.checkpoint_error << ")";
    if (recovery.journal_entries > 0) err << "; replaying the journal";
    err << '\n';
  }
  out << core.ready_line() << '\n' << std::flush;

  auto ingest = std::make_shared<Ingest>();
  ingest->capacity = options.queue_capacity;
  std::thread reader(reader_main, ingest, std::ref(in));

  // Must run before `reader` leaves scope on *every* path — including an
  // IoError unwinding out of the loop below — because destroying a
  // joinable std::thread calls std::terminate. The reader exits promptly
  // unless it is blocked inside getline on a still-open pipe; give it a
  // moment, then abandon it (it only touches shared_ptr-owned state plus
  // the caller-guaranteed stream; see run_daemon's contract in daemon.h).
  const auto stop_reader = [&] {
    {
      std::lock_guard lk(ingest->mu);
      ingest->stop = true;
      ingest->cv_push.notify_all();
    }
    for (int i = 0; i < 40 && !ingest->done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (ingest->done.load()) {
      reader.join();
    } else {
      reader.detach();
    }
  };

  int exit_code = 0;
  try {
    for (;;) {
      // A signal wants out now: drop queued lines (they were never journaled,
      // so the client's resend after restart re-drives them).
      if (signals::termination_requested()) {
        exit_code = 130;
        break;
      }
      std::string line;
      std::size_t queue_depth = 0;
      {
        std::unique_lock lk(ingest->mu);
        ingest->cv_pop.wait_for(lk, std::chrono::milliseconds(50), [&ingest] {
          return !ingest->queue.empty() || ingest->eof;
        });
        if (ingest->queue.empty()) {
          if (ingest->eof) break;  // normal drain: input exhausted
          continue;                // timeout: re-check the signal flag
        }
        line = std::move(ingest->queue.front());
        ingest->queue.pop_front();
        ingest->cv_push.notify_one();
        queue_depth = ingest->queue.size();
      }
      const bool shed = should_shed(queue_depth, options.queue_capacity,
                                    core.last_tick_ms(),
                                    options.tick_deadline_ms);
      const DaemonCore::Result result = core.process_line(line, shed);
      for (const std::string& reply : result.replies) out << reply << '\n';
      out << std::flush;
      if (result.shutdown) break;
    }

    // Drain: final checkpoint plus the summary, on every exit path. The
    // journal is already flushed per accepted line.
    if (core.checkpoint_now()) {
      err << "serve: final checkpoint at slot " << core.arbiter().next_slot()
          << '\n';
    }
    out << core.arbiter().summary() << '\n' << std::flush;
    err << "serve: " << (exit_code == 130 ? "terminated by signal" : "drained")
        << " after " << core.arbiter().next_slot() << " slots, "
        << core.arbiter().app_count() << " apps\n";
  } catch (...) {
    // Persistence failures (journal append, checkpoint write) propagate as
    // IoError per the contract in daemon.h — but only after the reader
    // thread is stopped, or its destructor would abort the process.
    stop_reader();
    throw;
  }

  stop_reader();
  return exit_code;
}

}  // namespace ropus::serve
