// serve-churn: the online path. DaemonCore::process_line with journal,
// checkpoints every 64 slots and compaction on; 104 one-week app profiles
// (4 replicas of the case study) on 40 x 16-way servers.
//
// Traffic, one closed-loop client: admit all 104 apps, then 2016 ticks
// carrying every app's demand; every 8 slots one app departs and
// re-admits (356 admits in all). After the pass a second DaemonCore
// recovers from the checkpoint plus journal tail on disk.
//
// Reference: the same line stream replayed through a bare Arbiter (no
// envelope, no persistence) gives the expected reply bytes of every
// request; the recovered daemon's summary must equal the live one.
#include <charconv>
#include <filesystem>

#include "harness.h"
#include "obs/span.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using namespace ropus;
namespace fs = std::filesystem;

constexpr std::size_t kReplicas = 4;
constexpr std::size_t kServers = 40;
constexpr std::size_t kChurnEverySlots = 8;
constexpr std::size_t kCheckpointEverySlots = 64;

enum class Kind { kAdmit, kTick, kDepart };

struct Request {
  Kind kind;
  std::string line;
};

void append_number(std::string& out, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::fixed, 4);
  out.append(buf, res.ptr);
}

std::string admit_line(const trace::DemandTrace& d) {
  std::string line = R"({"type":"admit","app":")" + d.name() + R"(","profile":[)";
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i > 0) line += ',';
    append_number(line, d[i]);
  }
  line += "]}";
  return line;
}

std::uint64_t digest_of(const std::vector<std::string>& replies) {
  Digest d;
  for (const std::string& r : replies) d.add(r);
  return d.value();
}

bool has_error(const std::vector<std::string>& replies) {
  for (const std::string& r : replies) {
    if (r.starts_with(R"({"type":"error")")) return true;
  }
  return false;
}

class ServeChurn final : public Workload {
 public:
  explicit ServeChurn(const Options& options)
      : dir_(fs::path(options.work_dir) / "serve-churn") {
    const std::vector<trace::DemandTrace> fleet =
        generate_fleet(replica_profiles(kReplicas), 1, options.seed);
    const std::size_t slots = fleet.front().size();
    config_.minutes_per_sample = 5.0;
    config_.slots_per_day = 288;
    config_.servers = kServers;
    config_.server_cpus = 16.0;

    for (const trace::DemandTrace& d : fleet) {
      requests_.push_back({Kind::kAdmit, admit_line(d)});
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      std::string line =
          R"({"type":"tick","slot":)" + std::to_string(slot) + R"(,"demand":{)";
      for (std::size_t a = 0; a < fleet.size(); ++a) {
        if (a > 0) line += ',';
        line += '"' + fleet[a].name() + "\":";
        append_number(line, fleet[a][slot]);
      }
      line += "}}";
      requests_.push_back({Kind::kTick, std::move(line)});
      if ((slot + 1) % kChurnEverySlots == 0) {
        const trace::DemandTrace& d =
            fleet[(slot / kChurnEverySlots) % fleet.size()];
        requests_.push_back(
            {Kind::kDepart, R"({"type":"depart","app":")" + d.name() + "\"}"});
        requests_.push_back({Kind::kAdmit, admit_line(d)});
      }
    }

    options_.journal_path = dir_ / "serve.journal";
    options_.checkpoint_path = dir_ / "serve.ckpt";
    options_.checkpoint_every_slots = kCheckpointEverySlots;
    options_.compact_journal = true;
    core_ = fresh_core();
  }

  ~ServeChurn() override {
    core_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  PassTime pass(Checks& checks, std::vector<double>& verdict_ms) override {
    if (!core_) core_ = fresh_core();
    std::vector<std::uint64_t> digests;
    digests.reserve(requests_.size());
    std::vector<double> ticks;
    std::vector<double> admits;

    const obs::ScopedSpan root("bench.pass");
    const double wall0 = wall_seconds();
    const double cpu0 = cpu_seconds();
    for (const Request& r : requests_) {
      const double t0 = wall_seconds();
      const serve::DaemonCore::Result result = core_->process_line(r.line, false);
      const double ms = 1000.0 * (wall_seconds() - t0);
      if (r.kind == Kind::kTick) ticks.push_back(ms);
      if (r.kind == Kind::kAdmit) admits.push_back(ms);
      digests.push_back(digest_of(result.replies));
      if (has_error(result.replies)) {
        checks.op(false, "protocol error: " + result.replies.front());
      }
    }
    const PassTime time{wall_seconds() - wall0, cpu_seconds() - cpu0};

    // Restart from what the pass left on disk.
    const std::string live_summary = core_->arbiter().summary();
    const double r0 = wall_seconds();
    std::string recovered_summary;
    {
      const serve::DaemonCore recovered(config_, options_);
      recover_s_.push_back(wall_seconds() - r0);
      recovered_summary = recovered.arbiter().summary();
    }
    checks.op(recovered_summary == live_summary,
              "recovered summary differs from the live one");
    core_.reset();

    verdict_ms.insert(verdict_ms.end(), ticks.begin(), ticks.end());
    tick_ms_.insert(tick_ms_.end(), ticks.begin(), ticks.end());
    admit_ms_.insert(admit_ms_.end(), admits.begin(), admits.end());
    req_per_s_.push_back(static_cast<double>(requests_.size()) / time.wall_s);
    pass_digests_.push_back(std::move(digests));
    return time;
  }

  void verify(Checks& checks, bool corrupt_reference) override {
    serve::Arbiter reference(config_);
    std::vector<std::uint64_t> expected;
    expected.reserve(requests_.size());
    for (const Request& r : requests_) {
      std::uint64_t d = 0;  // a line the reference rejects matches nothing
      try {
        d = digest_of(reference.handle(serve::parse_message(r.line)));
      } catch (const serve::ProtocolViolation&) {
      }
      if (corrupt_reference) d ^= 1;
      expected.push_back(d);
    }
    for (const std::vector<std::uint64_t>& digests : pass_digests_) {
      for (std::size_t i = 0; i < digests.size(); ++i) {
        checks.op(digests[i] == expected[i],
                  "reply bytes of request " + std::to_string(i) +
                      " differ from the bare arbiter");
      }
    }
  }

  std::vector<Metric> report() const override {
    return {{"tick_p50_us", 1000.0 * percentile(tick_ms_, 0.50), "us"},
            {"tick_p99_us", 1000.0 * percentile(tick_ms_, 0.99), "us"},
            {"tick_samples", static_cast<double>(tick_ms_.size()), "count"},
            {"admit_p50_ms", percentile(admit_ms_, 0.50), "ms"},
            {"admit_p95_ms", percentile(admit_ms_, 0.95), "ms"},
            {"admit_samples", static_cast<double>(admit_ms_.size()), "count"},
            {"serve_req_per_s", median(req_per_s_), "req/s"},
            {"recover_s", median(recover_s_), "s"}};
  }

  /// Replays the stream through the pieces process_line is made of —
  /// parse_message, Arbiter::handle, Journal::append, and the checkpoint
  /// (write_checkpoint, then compaction) — timing each separately.
  void probe_layers(LayerValues& out) override {
    const fs::path probe_dir = dir_ / "probe";
    fs::create_directories(probe_dir);
    serve::Arbiter arbiter(config_);
    serve::Journal journal(probe_dir / "probe.journal", 0, 0, 0);
    double parse_s = 0.0, tick_s = 0.0, admit_s = 0.0, append_s = 0.0,
           checkpoint_s = 0.0, checkpoint_bytes = 0.0, journal_bytes = 0.0;
    std::size_t ticks = 0, admits = 0, appends = 0, checkpoints = 0;
    std::size_t slots_at_checkpoint = 0;
    for (const Request& r : requests_) {
      double t0 = wall_seconds();
      serve::Message msg;
      {
        const obs::ScopedSpan span("bench.serve.parse");
        msg = serve::parse_message(r.line);
      }
      double t1 = wall_seconds();
      parse_s += t1 - t0;
      bool changed = false;
      {
        const obs::ScopedSpan span("bench.serve.arbiter");
        (void)arbiter.handle(msg, &changed);
      }
      const double t2 = wall_seconds();
      if (r.kind == Kind::kTick) {
        tick_s += t2 - t1;
        ticks += 1;
      } else if (r.kind == Kind::kAdmit) {
        admit_s += t2 - t1;
        admits += 1;
      }
      if (changed) {
        const std::uint64_t before = journal.bytes();
        t0 = wall_seconds();
        {
          const obs::ScopedSpan span("bench.serve.journal");
          journal.append(r.line);
        }
        append_s += wall_seconds() - t0;
        appends += 1;
        journal_bytes += static_cast<double>(journal.bytes() - before);
      }
      if (r.kind == Kind::kTick &&
          arbiter.next_slot() - slots_at_checkpoint >= kCheckpointEverySlots) {
        t0 = wall_seconds();
        {
          const obs::ScopedSpan span("bench.serve.checkpoint");
          serve::write_checkpoint(probe_dir / "probe.ckpt", arbiter,
                                  journal.entries());
          (void)journal.compact();
        }
        checkpoint_s += wall_seconds() - t0;
        checkpoint_bytes +=
            static_cast<double>(fs::file_size(probe_dir / "probe.ckpt"));
        checkpoints += 1;
        slots_at_checkpoint = arbiter.next_slot();
      }
    }
    const auto per = [](double total, std::size_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    out["serve.parse_us"] = 1e6 * per(parse_s, requests_.size());
    out["serve.arbiter.tick_us"] = 1e6 * per(tick_s, ticks);
    out["serve.arbiter.admit_ms"] = 1e3 * per(admit_s, admits);
    out["serve.journal.append_us"] = 1e6 * per(append_s, appends);
    out["serve.journal_bytes"] = journal_bytes;
    out["serve.checkpoint_ms"] = 1e3 * per(checkpoint_s, checkpoints);
    out["serve.checkpoint_bytes"] = per(checkpoint_bytes, checkpoints);
  }

 private:
  std::unique_ptr<serve::DaemonCore> fresh_core() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    return std::make_unique<serve::DaemonCore>(config_, options_);
  }

  fs::path dir_;
  serve::ServeConfig config_;
  serve::DaemonOptions options_;
  std::vector<Request> requests_;
  std::unique_ptr<serve::DaemonCore> core_;

  std::vector<std::vector<std::uint64_t>> pass_digests_;
  std::vector<double> tick_ms_;
  std::vector<double> admit_ms_;
  std::vector<double> req_per_s_;
  std::vector<double> recover_s_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_churn(const Options& options) {
  return std::make_unique<ServeChurn>(options);
}

}  // namespace perfbench
