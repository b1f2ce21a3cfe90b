// Chaos drill for `ropus_cli serve`: drives a real daemon subprocess
// through SIGKILLs at seeded points, checkpoint corruption, garbage input
// and slow-consumer stalls, then asserts the crash-safety contract — the
// surviving verdict stream and the final summary are byte-identical to an
// uninterrupted reference run of the same request script.
//
// Two campaigns:
//  * stdio: the original pipe-driven drill (kills, checkpoint and profile
//    store corruption, garbage, consumer stalls);
//  * network (--net-ticks > 0): the same contract over a Unix-domain
//    socket daemon with journal compaction on — mid-line disconnects,
//    slowloris writers, duplicate retried request ids, kill -9 between
//    profile store and snapshot or snapshot and truncate
//    (ROPUS_SERVE_CRASH), and pool departures; the
//    reference run is the *stdio* transport, so the campaign also proves
//    the two transports produce identical verdict bytes. The journal is
//    sampled at every checkpoint interval and must stay bounded by two
//    intervals' worth of frames.
//
// The drill is deterministic for a given --seed: the request script, the
// kill points and the corruption sites all derive from one SplitMix64
// stream. Exit 0 means every assertion held; any violation prints a
// diagnostic and exits 1.
//
// POSIX-only (fork/exec/pipes); the build gates it on UNIX.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "serve/checkpoint.h"

namespace {

namespace fs = std::filesystem;
using ropus::SplitMix64;

// Every live daemon subprocess, so fail() can kill them before exiting.
// std::exit skips stack unwinding for frames above main's callees, and an
// orphaned daemon inherits our stderr pipe — a caller reading it to EOF
// (ctest, CI log capture) would then hang on a *failed* drill.
std::vector<pid_t>& live_daemons() {
  static std::vector<pid_t> pids;
  return pids;
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "chaos_drill: FAIL: " << message << "\n";
  for (pid_t pid : live_daemons()) {
    ::kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

/// A serve daemon subprocess with pipes on stdin/stdout. stderr passes
/// through to the drill's stderr so daemon diagnostics stay visible.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::vector<std::string>& args,
         const std::vector<std::string>& env = {}) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) {
      fail(std::string("pipe: ") + std::strerror(errno));
    }
    pid_ = fork();
    if (pid_ < 0) fail(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      for (const std::string& kv : env) {
        // The string outlives execv (the child's copy of this vector);
        // putenv keeps the pointer in environ, which execv passes on.
        putenv(const_cast<char*>(kv.c_str()));
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(cli.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(cli.c_str(), argv.data());
      std::perror("execv");
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
    live_daemons().push_back(pid_);
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill9();
      reap();
    }
  }

  void send(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          write(stdin_fd_, framed.data() + off, framed.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail(std::string("write to daemon: ") + std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads one reply line (15 s timeout).
  std::string recv() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const int pr = poll(&pfd, 1, 15000);
      if (pr == 0) fail("timed out waiting for a daemon reply");
      if (pr < 0) {
        if (errno == EINTR) continue;
        fail(std::string("poll: ") + std::strerror(errno));
      }
      char chunk[4096];
      const ssize_t n = read(stdout_fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail(std::string("read from daemon: ") + std::strerror(errno));
      }
      if (n == 0) fail("daemon closed stdout unexpectedly");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close_stdin() {
    if (stdin_fd_ >= 0) {
      close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  void kill9() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
  }

  /// Graceful termination signal — exercises the daemon's drain path.
  void terminate() {
    if (pid_ > 0) ::kill(pid_, SIGTERM);
  }

  int reap() {
    int status = 0;
    if (pid_ > 0) {
      waitpid(pid_, &status, 0);
      std::erase(live_daemons(), pid_);
      pid_ = -1;
    }
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdin_fd_ = stdout_fd_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
};

std::string type_of(const std::string& reply) {
  // Every reply starts {"type":"<name>", — cheap extraction beats a parse.
  const std::string prefix = "{\"type\":\"";
  if (reply.rfind(prefix, 0) != 0) return "";
  const std::size_t end = reply.find('"', prefix.size());
  if (end == std::string::npos) return "";
  return reply.substr(prefix.size(), end - prefix.size());
}

std::optional<std::size_t> slot_of(const std::string& verdict) {
  const std::string key = "\"slot\":";
  const std::size_t pos = verdict.find(key);
  if (pos == std::string::npos) return std::nullopt;
  return static_cast<std::size_t>(
      std::strtoull(verdict.c_str() + pos + key.size(), nullptr, 10));
}

/// The deterministic request script both runs replay.
struct Script {
  std::vector<std::string> admits;
  std::vector<std::string> ticks;  // one per slot, in slot order
};

std::string double_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

Script build_script(std::size_t apps, std::size_t ticks, std::uint64_t seed) {
  Script script;
  SplitMix64 rng(seed);
  const std::size_t week_slots = 2016;  // 5-minute sampling
  const auto uniform = [&rng](double lo, double hi) {
    const double u =
        static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
    return lo + (hi - lo) * u;
  };
  std::vector<std::string> names;
  for (std::size_t a = 0; a < apps; ++a) {
    names.push_back("app-" + std::to_string(a));
    const double base = uniform(1.0, 3.0);
    std::string line = "{\"type\":\"admit\",\"app\":\"" + names.back() +
                       "\",\"revenue\":" + double_str(uniform(0.5, 2.0)) +
                       ",\"profile\":[";
    for (std::size_t s = 0; s < week_slots; ++s) {
      if (s != 0) line += ',';
      line += double_str(base + uniform(0.0, 1.5));
    }
    line += "]}";
    script.admits.push_back(std::move(line));
  }
  for (std::size_t t = 0; t < ticks; ++t) {
    std::string line =
        "{\"type\":\"tick\",\"slot\":" + std::to_string(t) + ",\"demand\":{";
    bool first = true;
    for (const std::string& name : names) {
      const std::uint64_t r = rng.next();
      if (r % 13 == 0) continue;  // absent reading
      if (!first) line += ',';
      first = false;
      line += '"' + name + "\":";
      if (r % 17 == 0) {
        line += "null";  // explicitly missing
      } else {
        line += double_str(1.0 + uniform(0.0, 4.0));
      }
    }
    line += "}}";
    script.ticks.push_back(std::move(line));
  }
  return script;
}

std::vector<std::string> daemon_args(const fs::path& dir, bool persist,
                                     std::size_t queue) {
  std::vector<std::string> args{"serve", "--queue=" + std::to_string(queue),
                                "--checkpoint-every=16"};
  if (persist) {
    args.push_back("--checkpoint=" + (dir / "ckpt").string());
    args.push_back("--journal=" + (dir / "journal").string());
  }
  return args;
}

/// Damages the checkpoint at `path` or the profile store beside it, as
/// `mode` picks: a torn checkpoint, a lying checkpoint header, a flipped
/// store byte or a torn store. Recovery must then pass over a checkpoint
/// it cannot use, or whose profile names no longer resolve.
void corrupt_checkpoint(const fs::path& path, std::uint64_t mode) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;  // no checkpoint yet — nothing to corrupt
  const fs::path store = ropus::serve::ProfileStore::path_for(path);
  const auto store_size = fs::file_size(store, ec);
  if (ec || store_size == 0) mode &= ~std::uint64_t{2};  // no store yet
  switch (mode % 4) {
    case 0:
      fs::resize_file(path, size / 2, ec);  // torn write
      break;
    case 1: {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << "ROPUS-CHECKPOINT v1 len=999 crc=deadbeef\n{\"garbage\":";  // lies
      break;
    }
    case 2: {
      std::fstream f(store, std::ios::in | std::ios::out | std::ios::binary);
      const auto at = static_cast<std::streamoff>((mode >> 8) % store_size);
      char c = 0;
      f.seekg(at);
      f.get(c);
      f.seekp(at);
      f.put(static_cast<char>(c ^ 0x10));
      break;
    }
    default:
      fs::resize_file(store, store_size / 2, ec);  // torn store
      break;
  }
}

struct DrillStats {
  std::size_t kills = 0;
  std::size_t corruptions = 0;
  std::size_t garbage = 0;
  std::size_t stalls = 0;
};

// ---------------------------------------------------------------------------
// HTTP scrape plane
// ---------------------------------------------------------------------------

/// One-shot scrape against the daemon's HTTP listener: connects to
/// 127.0.0.1:port, sends a GET, reads to EOF. Empty on connect failure
/// (e.g. the daemon already exited) — callers decide whether that fails.
std::string http_get(int port, const std::string& path, int timeout_ms = 5000) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = poll(&pfd, 1, timeout_ms);
    if (pr <= 0) break;
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  close(fd);
  return reply;
}

int http_status(const std::string& reply) {
  if (reply.rfind("HTTP/1.0 ", 0) != 0) return -1;
  return static_cast<int>(std::strtol(reply.c_str() + 9, nullptr, 10));
}

std::string http_body(const std::string& reply) {
  const std::size_t at = reply.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : reply.substr(at + 4);
}

/// Prometheus 0.0.4 exposition-format invariants a real scraper depends
/// on: no blank lines, a TYPE per family before its samples, the ropus_
/// prefix, `_total` counters, cumulative `_bucket` series ending at
/// le="+Inf" equal to `_count`. Any violation fails the drill.
void check_prometheus(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  std::map<std::string, std::string> types;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> counts;
  bool any_sample = false;
  while (std::getline(in, line)) {
    if (line.empty()) fail("/metrics body has a blank line");
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos) fail("malformed TYPE line: " + line);
      if (!types.emplace(rest.substr(0, sp), rest.substr(sp + 1)).second) {
        fail("duplicate TYPE for family " + rest.substr(0, sp));
      }
      continue;
    }
    if (line[0] == '#') fail("unknown comment form in /metrics: " + line);
    any_sample = true;
    const std::size_t sp = line.rfind(' ');
    const std::size_t brace = line.find('{');
    if (sp == std::string::npos) fail("malformed sample line: " + line);
    const std::string name = brace != std::string::npos && brace < sp
                                 ? line.substr(0, brace)
                                 : line.substr(0, sp);
    if (name.rfind("ropus_", 0) != 0) {
      fail("metric without the ropus_ prefix: " + line);
    }
    const double value = std::strtod(line.c_str() + sp + 1, nullptr);
    std::string family = name;
    for (const char* sfx : {"_bucket", "_sum", "_count"}) {
      const std::string s(sfx);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          types.count(name.substr(0, name.size() - s.size())) != 0) {
        family = name.substr(0, name.size() - s.size());
      }
    }
    const auto it = types.find(family);
    if (it == types.end()) fail("sample without a TYPE: " + line);
    if (it->second == "counter" &&
        (family.size() < 6 ||
         family.compare(family.size() - 6, 6, "_total") != 0)) {
      fail("counter family without _total suffix: " + family);
    }
    if (it->second == "histogram" && family != name) {
      if (name == family + "_bucket") {
        const std::size_t le = line.find("le=\"");
        if (le == std::string::npos) fail("bucket without le label: " + line);
        const char* ptr = line.c_str() + le + 4;
        const double bound = std::strncmp(ptr, "+Inf", 4) == 0
                                 ? std::numeric_limits<double>::infinity()
                                 : std::strtod(ptr, nullptr);
        buckets[family].emplace_back(bound, value);
      } else if (name == family + "_count") {
        counts[family] = value;
      }
    }
  }
  if (!any_sample) fail("/metrics body has no samples");
  for (const auto& [family, series] : buckets) {
    for (std::size_t i = 1; i < series.size(); ++i) {
      if (!(series[i - 1].first < series[i].first) ||
          series[i - 1].second > series[i].second) {
        fail("histogram " + family + " buckets are not cumulative");
      }
    }
    if (series.empty() || !std::isinf(series.back().first) ||
        counts.find(family) == counts.end() ||
        series.back().second != counts[family]) {
      fail("histogram " + family + " +Inf bucket does not match _count");
    }
  }
}

int http_port_of(const std::string& listening) {
  const std::string key = "\"http_port\":";
  const std::size_t pos = listening.find(key);
  if (pos == std::string::npos) return -1;
  return static_cast<int>(
      std::strtol(listening.c_str() + pos + key.size(), nullptr, 10));
}

// ---------------------------------------------------------------------------
// Network campaign
// ---------------------------------------------------------------------------

/// Blocking Unix-domain client for the socket daemon. Unlike serve::Client
/// it retries nothing on its own — the drill orchestrates every kill and
/// resend itself so it can assert on the exact interleaving.
class Sock {
 public:
  explicit Sock(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      close(fd_);
      fd_ = -1;
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Sock() {
    if (fd_ >= 0) close(fd_);
  }
  Sock(const Sock&) = delete;
  Sock& operator=(const Sock&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Best-effort raw send; a dead peer (EPIPE after a kill) is expected
  /// chaos, not a drill failure.
  void send_raw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// False on EOF (daemon died or dropped us); fails the drill on timeout.
  bool try_recv_line(std::string& line, int timeout_ms = 15000) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = poll(&pfd, 1, timeout_ms);
      if (pr == 0) fail("timed out waiting for a socket reply");
      if (pr < 0) {
        if (errno == EINTR) continue;
        fail(std::string("poll: ") + std::strerror(errno));
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string recv_line() {
    std::string line;
    if (!try_recv_line(line)) fail("daemon closed the socket unexpectedly");
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Splices `"id":"<id>",` into a request line right after the opening
/// brace, like serve::Client does.
std::string with_id(const std::string& line, const std::string& id) {
  const std::size_t brace = line.find('{');
  return line.substr(0, brace + 1) + "\"id\":\"" + id + "\"," +
         line.substr(brace + 1);
}

/// One scripted request and the reply type it must produce.
struct NetEvent {
  std::string line;
  const char* expect;
};

struct NetStats {
  std::size_t kills = 0;
  std::size_t crash_points = 0;  // ROPUS_SERVE_CRASH restarts
  std::size_t midline = 0;       // disconnects halfway through a line
  std::size_t lorises = 0;       // connections left dribbling
  std::size_t duplicates = 0;    // same-id retries without a kill
  std::size_t departures = 0;
  std::size_t journal_peak = 0;  // max frames past the compaction base
  std::size_t scrapes = 0;       // mid-campaign /metrics + /healthz checks
};

int run_network_campaign(const std::string& cli, const fs::path& dir,
                         std::size_t apps, std::size_t ticks,
                         std::size_t kills, std::size_t interval,
                         std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0xda3e39cb94b95bdbULL);
  const auto uniform = [&rng](double lo, double hi) {
    const double u =
        static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
    return lo + (hi - lo) * u;
  };
  const std::size_t week_slots = 2016;
  const auto admit_for = [&](const std::string& name) {
    const double base = uniform(1.0, 3.0);
    std::string line = "{\"type\":\"admit\",\"app\":\"" + name +
                       "\",\"revenue\":" + double_str(uniform(0.5, 2.0)) +
                       ",\"profile\":[";
    for (std::size_t s = 0; s < week_slots; ++s) {
      if (s != 0) line += ',';
      line += double_str(base + uniform(0.0, 1.5));
    }
    line += "]}";
    return line;
  };

  // ---- Script: admits, ticks, and seeded departures with replacement
  // admissions — the pool churns but stays deterministic.
  std::vector<std::string> names;
  std::vector<NetEvent> events;
  NetStats stats;
  for (std::size_t a = 0; a < apps; ++a) {
    names.push_back("app-" + std::to_string(a));
    events.push_back({admit_for(names.back()), "admission"});
  }
  std::vector<char> departed(apps, 0);
  std::size_t extra = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (apps > 0 && ticks > 8 && t > 0 && t % (ticks / 4) == 0) {
      const std::size_t victim = rng.next() % apps;
      if (departed[victim] == 0) {
        departed[victim] = 1;
        const bool evict = rng.next() % 2 == 0;
        events.push_back({std::string("{\"type\":\"") +
                              (evict ? "evict" : "depart") + "\",\"app\":\"" +
                              names[victim] + "\"}",
                          "departure"});
        events.push_back(
            {admit_for("app-extra-" + std::to_string(extra++)), "admission"});
        stats.departures += 1;
      }
    }
    std::string line =
        "{\"type\":\"tick\",\"slot\":" + std::to_string(t) + ",\"demand\":{";
    bool first = true;
    for (const std::string& name : names) {
      const std::uint64_t r = rng.next();
      if (r % 13 == 0) continue;
      if (!first) line += ',';
      first = false;
      line += '"' + name + "\":";
      line += r % 17 == 0 ? "null" : double_str(1.0 + uniform(0.0, 4.0));
    }
    line += "}}";
    events.push_back({std::move(line), "verdict"});
  }

  // ---- Reference run over stdio: no faults, no persistence. Matching it
  // byte for byte also proves transport equivalence.
  std::vector<std::string> ref_replies;
  std::string ref_summary;
  {
    Daemon daemon(cli, {"serve", "--queue=1024"});
    if (type_of(daemon.recv()) != "ready") fail("net reference not ready");
    for (const NetEvent& ev : events) {
      daemon.send(ev.line);
      const std::string reply = daemon.recv();
      if (type_of(reply) != ev.expect) {
        fail(std::string("net reference expected ") + ev.expect + ", got: " +
             reply);
      }
      ref_replies.push_back(reply);
    }
    daemon.send("{\"type\":\"shutdown\"}");
    ref_summary = daemon.recv();
    if (type_of(ref_summary) != "summary") {
      fail("net reference summary was: " + ref_summary);
    }
    daemon.close_stdin();
    daemon.reap();
  }

  // ---- Chaos run over a Unix socket with journal compaction on.
  const fs::path net_dir = dir / "net";
  fs::create_directories(net_dir);
  const std::string sock = (net_dir / "d.sock").string();
  const fs::path journal = net_dir / "journal";
  int http_port = -1;
  const auto start_daemon = [&](const char* crash_point) {
    std::vector<std::string> env;
    if (crash_point != nullptr) {
      env.push_back(std::string("ROPUS_SERVE_CRASH=") + crash_point);
    }
    auto d = std::make_unique<Daemon>(
        cli,
        std::vector<std::string>{
            "serve", "--socket=" + sock, "--http-port=0",
            "--journal=" + journal.string(),
            "--checkpoint=" + (net_dir / "ckpt").string(), "--compact=true",
            "--checkpoint-every=" + std::to_string(interval),
            "--read-timeout=30", "--write-timeout=30"},
        env);
    const std::string listening = d->recv();
    if (type_of(listening) != "listening") fail("socket daemon not listening");
    http_port = http_port_of(listening);
    if (http_port <= 0) {
      fail("listening line carries no http_port: " + listening);
    }
    return d;
  };
  const auto connect_greet = [&]() {
    auto s = std::make_unique<Sock>(sock);
    if (!s->ok()) fail("cannot connect to " + sock);
    if (type_of(s->recv_line()) != "ready") fail("socket greeting missing");
    return s;
  };
  /// Replies until the end marker for `id` (the marker itself excluded);
  /// nullopt when the connection died first.
  const auto read_frame = [](Sock& s, const std::string& id)
      -> std::optional<std::vector<std::string>> {
    std::vector<std::string> replies;
    for (;;) {
      std::string line;
      if (!s.try_recv_line(line)) return std::nullopt;
      if (type_of(line) == "end" &&
          line.find("\"id\":\"" + id + "\"") != std::string::npos) {
        return replies;
      }
      replies.push_back(line);
    }
  };

  auto daemon = start_daemon(nullptr);
  auto conn = connect_greet();
  std::vector<std::unique_ptr<Sock>> lorises;
  static const char* kCrashPoints[] = {"after-profile-store",
                                       "after-checkpoint", "after-compact",
                                       "after-journal-append"};

  std::vector<char> kill_here(events.size(), 0);
  for (std::size_t k = 0; k < kills && !events.empty(); ++k) {
    kill_here[rng.next() % events.size()] = 1;
  }

  const auto check_journal_bound = [&]() {
    const ropus::serve::Journal::Recovered r =
        ropus::serve::Journal::recover(journal);
    stats.journal_peak = std::max(stats.journal_peak, r.lines.size());
    // One in-flight line may be mid-append while we sample; allow it on
    // top of the two-interval bound.
    if (r.lines.size() > 2 * interval + 1) {
      fail("journal grew past its bound: " + std::to_string(r.lines.size()) +
           " frames past base " + std::to_string(r.base) +
           " (checkpoint interval " + std::to_string(interval) + ")");
    }
  };

  std::size_t ticks_seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const NetEvent& ev = events[i];
    const std::string id = "net-" + std::to_string(i);
    const std::string wire = with_id(ev.line, id) + "\n";
    const std::uint64_t die = rng.next();

    if (die % 23 == 0) {
      // Disconnect halfway through the line; the daemon must discard the
      // fragment and the full resend below must apply exactly once.
      auto half = connect_greet();
      half->send_raw(wire.substr(0, wire.size() / 2));
      half.reset();
      stats.midline += 1;
    }
    if (die % 19 == 0) {
      // A slowloris writer: dribbles a prefix and never finishes. It may
      // not block the arbiter — if it did, every transaction below would
      // time the drill out.
      auto loris = connect_greet();
      loris->send_raw("{\"ty");
      lorises.push_back(std::move(loris));
      stats.lorises += 1;
    }

    if (die % 29 == 0) {
      // Restart into a crash-armed daemon: it will _Exit(137) at a chosen
      // point inside the persistence path and must come back
      // byte-identical.
      const char* point = kCrashPoints[die % std::size(kCrashPoints)];
      daemon->kill9();
      daemon->reap();
      conn.reset();
      daemon = start_daemon(point);
      conn = connect_greet();
      stats.crash_points += 1;
      if (std::string(point) != "after-journal-append") {
        // An explicit checkpoint request dies between the profile store's
        // fsync and the snapshot's rename (after-profile-store), between
        // snapshot and truncate (after-checkpoint) or right after the
        // truncate (after-compact); drain to EOF proves the death.
        conn->send_raw(with_id("{\"type\":\"checkpoint\"}", id + "-ck") +
                       "\n");
        std::string ignored;
        while (conn->try_recv_line(ignored, 15000)) {
        }
        daemon->reap();
        conn.reset();
        daemon = start_daemon(nullptr);
        conn = connect_greet();
      }
      // after-journal-append stays armed: the next journaled append —
      // usually this very event — kills the daemon mid-frame, and the
      // dead-connection recovery below must replay the original bytes.
    }

    if (kill_here[i] != 0) {
      conn->send_raw(wire);
      std::optional<std::vector<std::string>> before;
      if (die % 2 == 0) before = read_frame(*conn, id);
      daemon->kill9();
      daemon->reap();
      conn.reset();
      daemon = start_daemon(nullptr);
      conn = connect_greet();
      stats.kills += 1;
      conn->send_raw(wire);
      const auto replies = read_frame(*conn, id);
      if (!replies.has_value()) fail("resend after kill lost its frame");
      if (before.has_value() && *before != *replies) {
        fail("retried id " + id + " got different bytes after the kill");
      }
      if (replies->size() != 1 || (*replies)[0] != ref_replies[i]) {
        fail("event " + std::to_string(i) + " diverged after kill+resend");
      }
    } else {
      conn->send_raw(wire);
      auto replies = read_frame(*conn, id);
      if (!replies.has_value()) {
        // The daemon died underneath us (possible when a crash-point
        // restart above consumed this event's journal append). Restart
        // and resend — the id makes this safe.
        daemon->reap();
        conn.reset();
        daemon = start_daemon(nullptr);
        conn = connect_greet();
        conn->send_raw(wire);
        replies = read_frame(*conn, id);
        if (!replies.has_value()) fail("frame lost twice for " + id);
      }
      if (replies->size() != 1 || (*replies)[0] != ref_replies[i]) {
        fail("event " + std::to_string(i) + " diverged:\n  ref  : " +
             ref_replies[i] + "\n  chaos: " +
             (replies->empty() ? "<empty>" : (*replies)[0]));
      }
      if (die % 17 == 0) {
        // Duplicate retry without a kill: a second connection resending
        // the same id gets the cached bytes, not a second application.
        auto dup = connect_greet();
        dup->send_raw(wire);
        const auto again = read_frame(*dup, id);
        if (!again.has_value() || *again != *replies) {
          fail("duplicate id " + id + " was not answered from the cache");
        }
        stats.duplicates += 1;
      }
    }

    if (std::string(ev.expect) == "verdict") {
      ticks_seen += 1;
      if (ticks_seen % interval == 0) {
        check_journal_bound();
        // Scrape mid-campaign: the introspection plane must stay
        // conformant and truthful while the daemon is being tortured.
        const std::string metrics = http_get(http_port, "/metrics");
        if (http_status(metrics) != 200) {
          fail("mid-campaign /metrics scrape failed: " +
               metrics.substr(0, 64));
        }
        check_prometheus(http_body(metrics));
        const std::string healthz = http_get(http_port, "/healthz");
        const int hs = http_status(healthz);
        const std::string hb = http_body(healthz);
        const bool ok_state = hs == 200 &&
                              hb.find("\"status\":\"ok\"") != std::string::npos;
        const bool overloaded_state =
            hs == 503 &&
            hb.find("\"status\":\"overloaded\"") != std::string::npos;
        if (!ok_state && !overloaded_state) {
          fail("mid-campaign /healthz was neither ok nor overloaded: " +
               healthz.substr(0, 128));
        }
        stats.scrapes += 1;
      }
    }
  }

  // ---- Drain: summary arrives after the end frame, as the stream's
  // closing line; it must match the undisturbed stdio reference.
  conn->send_raw(with_id("{\"type\":\"shutdown\"}", "net-bye") + "\n");
  const auto frame = read_frame(*conn, "net-bye");
  if (!frame.has_value()) fail("shutdown frame lost");
  const std::string chaos_summary = conn->recv_line();
  if (chaos_summary != ref_summary) {
    fail("net summary diverged:\n  ref  : " + ref_summary +
         "\n  chaos: " + chaos_summary);
  }
  conn.reset();
  lorises.clear();
  const int status = daemon->reap();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail("socket daemon did not exit cleanly after shutdown");
  }

  // The final compaction folded everything into the checkpoint.
  const ropus::serve::Journal::Recovered final_state =
      ropus::serve::Journal::recover(journal);
  if (ticks >= interval && final_state.base == 0) {
    fail("journal was never compacted despite --compact");
  }
  if (final_state.lines.size() > 2 * interval + 1) {
    fail("journal not bounded after shutdown: " +
         std::to_string(final_state.lines.size()) + " frames");
  }

  std::cout << "chaos_drill: net PASS — " << apps << "+" << extra << " apps, "
            << ticks << " ticks over " << sock << "; " << stats.kills
            << " kills, " << stats.crash_points << " crash-point restarts, "
            << stats.midline << " mid-line disconnects, " << stats.lorises
            << " slowloris conns, " << stats.duplicates
            << " duplicate retries, " << stats.departures
            << " departures; journal peak " << stats.journal_peak
            << " frames (bound " << 2 * interval << "); " << stats.scrapes
            << " conformant mid-campaign scrapes; replies and summary "
               "byte-identical to the stdio reference\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Introspection campaign: burn-rate alerting and health transitions
// ---------------------------------------------------------------------------

struct LiveDaemon {
  std::unique_ptr<Daemon> proc;
  int http_port = -1;
};

LiveDaemon start_live(const std::string& cli, const std::string& sock,
                      const std::vector<std::string>& extra) {
  std::vector<std::string> args{"serve", "--socket=" + sock, "--http-port=0"};
  args.insert(args.end(), extra.begin(), extra.end());
  LiveDaemon d;
  d.proc = std::make_unique<Daemon>(cli, args);
  const std::string listening = d.proc->recv();
  if (type_of(listening) != "listening") {
    fail("introspection daemon not listening: " + listening);
  }
  d.http_port = http_port_of(listening);
  if (d.http_port <= 0) fail("no http_port in: " + listening);
  return d;
}

/// The live-plane contract, proven against real daemons: a quiet pool
/// fires no burn-rate alert; an overbooked pool whose apps peak together
/// fires the fast rule within its window; a slow consumer flips /healthz
/// to overloaded; and SIGTERM flips it to draining for the grace window
/// before exit 130.
int run_introspection_campaign(const std::string& cli, const fs::path& dir) {
  const fs::path ip_dir = dir / "introspect";
  fs::create_directories(ip_dir);
  const std::size_t week_slots = 2016;
  constexpr std::size_t kApps = 4;

  const auto admit_line = [&](std::size_t a) {
    std::string line = "{\"type\":\"admit\",\"app\":\"app-" +
                       std::to_string(a) + "\",\"profile\":[1.5";
    for (std::size_t s = 1; s < week_slots; ++s) line += ",1.5";
    return line + "]}";
  };
  const auto tick_line = [&](std::size_t slot, double demand) {
    std::string line =
        "{\"type\":\"tick\",\"slot\":" + std::to_string(slot) + ",\"demand\":{";
    for (std::size_t a = 0; a < kApps; ++a) {
      if (a != 0) line += ',';
      line += "\"app-" + std::to_string(a) + "\":" + double_str(demand);
    }
    return line + "}}";
  };
  /// Sends one identified request and returns its frame's replies.
  const auto transact = [&](Sock& s, const std::string& line,
                            const std::string& id) {
    s.send_raw(with_id(line, id) + "\n");
    std::vector<std::string> replies;
    for (;;) {
      std::string reply;
      if (!s.try_recv_line(reply)) fail("introspection frame lost for " + id);
      if (type_of(reply) == "end" &&
          reply.find("\"id\":\"" + id + "\"") != std::string::npos) {
        return replies;
      }
      replies.push_back(reply);
    }
  };

  // ---- Quiet reference: demand inside the profile, zero alerts.
  {
    const std::string sock = (ip_dir / "quiet.sock").string();
    LiveDaemon d = start_live(cli, sock, {"--servers=2", "--cpus=8"});
    Sock conn(sock);
    if (!conn.ok()) fail("cannot connect to " + sock);
    if (type_of(conn.recv_line()) != "ready") fail("quiet greeting missing");
    for (std::size_t a = 0; a < kApps; ++a) {
      const auto replies = transact(conn, admit_line(a), "q-a" +
                                    std::to_string(a));
      if (replies.size() != 1 || type_of(replies[0]) != "admission") {
        fail("quiet admission failed");
      }
    }
    for (std::size_t t = 0; t < 24; ++t) {
      const auto replies =
          transact(conn, tick_line(t, 1.2), "q-t" + std::to_string(t));
      if (replies.size() != 1 || type_of(replies[0]) != "verdict") {
        fail("quiet verdict failed");
      }
    }
    const std::string metrics = http_get(d.http_port, "/metrics");
    if (http_status(metrics) != 200) fail("quiet /metrics scrape failed");
    if (metrics.find("Content-Type: text/plain; version=0.0.4") ==
        std::string::npos) {
      fail("/metrics content type is not the 0.0.4 text format");
    }
    check_prometheus(http_body(metrics));
    if (http_body(metrics).find("ropus_serve_transport_lines_total") ==
        std::string::npos) {
      fail("quiet /metrics is missing the transport line counter");
    }
    const std::string healthz = http_get(d.http_port, "/healthz");
    if (http_status(healthz) != 200 ||
        http_body(healthz).find("\"status\":\"ok\"") == std::string::npos ||
        http_body(healthz).find("\"active_alerts\":0") == std::string::npos) {
      fail("quiet /healthz was not ok with zero alerts: " + healthz);
    }
    const auto stats = transact(conn, "{\"type\":\"stats\"}", "q-s");
    if (stats.size() != 1 || type_of(stats[0]) != "stats" ||
        stats[0].find("\"alerts\":[]") == std::string::npos) {
      fail("quiet stats verb reported alerts: " +
           (stats.empty() ? "<none>" : stats[0]));
    }
    const std::string sj = http_get(d.http_port, "/stats.json");
    if (http_status(sj) != 200 ||
        http_body(sj).find("\"samples\":") == std::string::npos) {
      fail("quiet /stats.json scrape failed");
    }
    (void)transact(conn, "{\"type\":\"shutdown\"}", "q-bye");
    if (type_of(conn.recv_line()) != "summary") fail("quiet summary missing");
    const int status = d.proc->reap();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail("quiet daemon did not exit cleanly");
    }
  }

  // ---- Overload run: the admission path guarantees the sum of per-app
  // CoS1 peaks fits the pool, so the induced overload is the overbooking
  // hazard itself — apps admitted on staggered bursty profiles (one peak
  // rotates through the pool at a time) that then all peak simultaneously.
  // The CoS2 commitment is reneged pool-wide, the watchdog crosses theta
  // on every fresh slot group, and the slo stream's fast rule must fire
  // within its (1-slot + 12-slot) window. ulow/uhigh put the breakpoint
  // at p ~ 0.7 so the demand split actually exercises both classes.
  constexpr std::size_t kHotApps = 6;
  constexpr double kHotPeak = 2.2;
  const auto hot_admit_line = [&](std::size_t a) {
    std::string line = "{\"type\":\"admit\",\"app\":\"app-" +
                       std::to_string(a) + "\",\"profile\":[";
    for (std::size_t s = 0; s < week_slots; ++s) {
      if (s != 0) line += ',';
      line += s % kHotApps == a ? "2.2" : "0.2";
    }
    return line + "],\"ulow\":0.65,\"uhigh\":0.66,\"udegr\":0.9,\"m\":97}";
  };
  const auto hot_tick_line = [&](std::size_t slot) {
    std::string line =
        "{\"type\":\"tick\",\"slot\":" + std::to_string(slot) + ",\"demand\":{";
    for (std::size_t a = 0; a < kHotApps; ++a) {
      if (a != 0) line += ',';
      line += "\"app-" + std::to_string(a) + "\":" + double_str(kHotPeak);
    }
    return line + "}}";
  };
  const std::string sock = (ip_dir / "hot.sock").string();
  LiveDaemon d = start_live(cli, sock,
                            {"--servers=1", "--cpus=8", "--drain-grace=2",
                             "--max-output-bytes=2048"});
  Sock conn(sock);
  if (!conn.ok()) fail("cannot connect to " + sock);
  if (type_of(conn.recv_line()) != "ready") fail("hot greeting missing");
  std::size_t accepted = 0;
  for (std::size_t a = 0; a < kHotApps; ++a) {
    const auto replies =
        transact(conn, hot_admit_line(a), "h-a" + std::to_string(a));
    if (replies.size() == 1 &&
        replies[0].find("\"decision\":\"accepted\"") != std::string::npos) {
      accepted += 1;
    }
  }
  // The policy stops admitting once the pool is booked; the overload only
  // needs the accepted subset to peak together.
  if (accepted < 3) {
    fail("overbooked pool admitted only " + std::to_string(accepted) +
         " of 6 staggered apps");
  }
  std::size_t slot = 0;
  bool fired = false;
  std::size_t fired_after = 0;
  for (; slot < 48 && !fired; ++slot) {
    (void)transact(conn, hot_tick_line(slot), "h-t" + std::to_string(slot));
    const auto stats = transact(conn, "{\"type\":\"stats\"}",
                                "h-s" + std::to_string(slot));
    if (stats.size() == 1 &&
        stats[0].find("\"stream\":\"slo\"") != std::string::npos &&
        stats[0].find("\"rule\":\"fast\"") != std::string::npos) {
      fired = true;
      fired_after = slot + 1;
    }
  }
  if (!fired) {
    fail("induced overload did not fire the fast-burn alert in 48 ticks");
  }
  const std::string hot_health = http_get(d.http_port, "/healthz");
  const std::string hot_body = http_body(hot_health);
  const std::size_t aa = hot_body.find("\"active_alerts\":");
  if (http_status(hot_health) != 200 || aa == std::string::npos ||
      std::strtol(hot_body.c_str() + aa + 16, nullptr, 10) < 1) {
    fail("overloaded pool's /healthz does not report active alerts: " +
         hot_health);
  }
  const std::string hot_metrics = http_body(http_get(d.http_port, "/metrics"));
  if (hot_metrics.find("ropus_obs_burnrate_slo_fast_active 1") ==
      std::string::npos) {
    fail("fast-burn active gauge missing from /metrics");
  }

  // ---- Slow consumer: burst ticks on a connection that never reads.
  // Once the kernel buffers fill, the 2 KiB output cap trips shedding and
  // /healthz must flip to overloaded.
  bool overloaded = false;
  {
    Sock burst(sock);
    if (!burst.ok()) fail("cannot open the burst connection");
    if (type_of(burst.recv_line()) != "ready") fail("burst greeting missing");
    for (int round = 0; round < 60 && !overloaded; ++round) {
      std::string chunk;
      for (int i = 0; i < 400; ++i) {
        chunk += hot_tick_line(slot++) + "\n";
      }
      burst.send_raw(chunk);
      const std::string h = http_get(d.http_port, "/healthz");
      overloaded =
          http_status(h) == 503 &&
          http_body(h).find("\"status\":\"overloaded\"") != std::string::npos;
    }
  }
  if (!overloaded) {
    fail("slow-consumer burst never flipped /healthz to overloaded");
  }
  // Closing the stuck connection clears the shed state.
  for (int i = 0; i < 100; ++i) {
    const std::string h = http_get(d.http_port, "/healthz");
    if (http_status(h) == 200 &&
        http_body(h).find("\"status\":\"ok\"") != std::string::npos) {
      break;
    }
    usleep(30000);
    if (i == 99) fail("/healthz stayed overloaded after the consumer left");
  }

  // ---- SIGTERM: the grace window reports draining over HTTP, then the
  // daemon exits 130 like any signal-terminated run.
  d.proc->terminate();
  bool draining = false;
  for (int i = 0; i < 200 && !draining; ++i) {
    const std::string h = http_get(d.http_port, "/healthz", 1000);
    draining =
        http_status(h) == 503 &&
        http_body(h).find("\"status\":\"draining\"") != std::string::npos;
    if (!draining) usleep(10000);
  }
  if (!draining) fail("/healthz never reported draining after SIGTERM");
  const int status = d.proc->reap();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 130) {
    fail("drained daemon did not exit 130");
  }

  std::cout << "chaos_drill: introspection PASS — quiet pool scraped "
               "conformant and alert-free; overbooked-pool overload fired "
               "slo/fast after "
            << fired_after
            << " ticks; slow consumer flipped /healthz overloaded and "
               "recovered; SIGTERM drained via 503 draining to exit 130\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon we just killed may take its pipe down while a write is in
  // flight; surface that as EPIPE, not process death.
  signal(SIGPIPE, SIG_IGN);
  std::vector<std::string> raw;
  for (int i = 1; i < argc; ++i) raw.emplace_back(argv[i]);
  const ropus::Flags flags(raw);
  const std::string cli = flags.get_string("cli", "");
  if (cli.empty()) {
    std::cerr << "usage: chaos_drill --cli=<path-to-ropus_cli> [--apps=26] "
                 "[--ticks=200] [--kills=10] [--seed=2006] [--dir=<workdir>] "
                 "[--net-ticks=48] [--net-apps=8] [--net-kills=4] "
                 "[--interval=16]\n";
    return 1;
  }
  const std::size_t apps = flags.get_size("apps", 26);
  const std::size_t ticks = flags.get_size("ticks", 200);
  const std::size_t kills = flags.get_size("kills", 10);
  const std::size_t net_ticks = flags.get_size("net-ticks", 48);
  const std::size_t net_apps = flags.get_size("net-apps", 8);
  const std::size_t net_kills = flags.get_size("net-kills", 4);
  const std::size_t interval = flags.get_size("interval", 16);
  const auto seed = static_cast<std::uint64_t>(flags.get_size("seed", 2006));
  fs::path dir = flags.get_string("dir", "");
  // A passing run removes the temp directory it made, but only its own
  // subdirectories of a caller's --dir.
  const bool own_dir = dir.empty();
  if (own_dir) {
    dir = fs::temp_directory_path() /
          ("chaos_drill." + std::to_string(getpid()));
  }
  fs::create_directories(dir / "ref");
  fs::create_directories(dir / "chaos");

  const Script script = build_script(apps, ticks, seed);

  // ---- Reference run: one daemon, no faults, lock-step request/reply.
  std::vector<std::string> ref_admissions;
  std::vector<std::string> ref_verdicts;  // index == slot
  std::string ref_summary;
  {
    Daemon daemon(cli, daemon_args(dir / "ref", false, 1024));
    if (type_of(daemon.recv()) != "ready") fail("reference daemon not ready");
    for (const std::string& line : script.admits) {
      daemon.send(line);
      const std::string reply = daemon.recv();
      if (type_of(reply) != "admission") {
        fail("reference admission reply was: " + reply);
      }
      ref_admissions.push_back(reply);
    }
    for (const std::string& line : script.ticks) {
      daemon.send(line);
      const std::string reply = daemon.recv();
      if (type_of(reply) != "verdict") {
        fail("reference verdict reply was: " + reply);
      }
      ref_verdicts.push_back(reply);
    }
    daemon.send("{\"type\":\"shutdown\"}");
    ref_summary = daemon.recv();
    if (type_of(ref_summary) != "summary") {
      fail("reference summary reply was: " + ref_summary);
    }
    daemon.close_stdin();
    daemon.reap();
  }

  // ---- Chaos run: same script, persistent state, seeded violence.
  SplitMix64 chaos_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<char> kill_here(ticks, 0);
  for (std::size_t k = 0; k < kills && ticks > 0; ++k) {
    kill_here[chaos_rng.next() % ticks] = 1;
  }

  DrillStats stats;
  const fs::path chaos_dir = dir / "chaos";
  auto daemon = std::make_unique<Daemon>(
      cli, daemon_args(chaos_dir, true, 8));
  if (type_of(daemon->recv()) != "ready") fail("chaos daemon not ready");

  const auto restart = [&](bool corrupt) {
    daemon->kill9();
    daemon->reap();
    if (corrupt) {
      corrupt_checkpoint(chaos_dir / "ckpt", chaos_rng.next());
      stats.corruptions += 1;
    }
    daemon = std::make_unique<Daemon>(cli, daemon_args(chaos_dir, true, 8));
    const std::string ready = daemon->recv();
    if (type_of(ready) != "ready") {
      fail("daemon failed to restart after kill: " + ready);
    }
    stats.kills += 1;
  };

  std::map<std::size_t, std::string> chaos_verdicts;
  const auto note_verdict = [&](const std::string& reply) {
    const auto slot = slot_of(reply);
    if (!slot.has_value()) fail("verdict without a slot: " + reply);
    const auto [it, inserted] = chaos_verdicts.emplace(*slot, reply);
    if (!inserted && it->second != reply) {
      fail("slot " + std::to_string(*slot) +
           " re-emitted a different verdict:\n  first: " + it->second +
           "\n  then : " + reply);
    }
  };

  for (std::size_t a = 0; a < script.admits.size(); ++a) {
    daemon->send(script.admits[a]);
    const std::string reply = daemon->recv();
    if (type_of(reply) != "admission") {
      fail("chaos admission reply was: " + reply);
    }
    if (reply != ref_admissions[a]) {
      fail("admission " + std::to_string(a) + " diverged:\n  ref  : " +
           ref_admissions[a] + "\n  chaos: " + reply);
    }
  }

  for (std::size_t t = 0; t < script.ticks.size(); ++t) {
    const std::string& line = script.ticks[t];
    const std::uint64_t die = chaos_rng.next();

    if (die % 7 == 0) {
      // Garbage between valid requests must produce a typed error and
      // nothing else.
      static const std::vector<std::string> kGarbage = {
          "{\"type\":\"tick\",\"slot\":-4,\"demand\":{}}",
          "{\"type\":\"frobnicate\"}",
          "{\"type\":\"tick\",\"slot\":",
          std::string("{\"a\":\"b\x00trash\"}", 15),  // embedded NUL
          "[[[[[[[[[[[[[[[[[[[[",
      };
      daemon->send(kGarbage[die % kGarbage.size()]);
      const std::string reply = daemon->recv();
      if (type_of(reply) != "error") {
        fail("garbage input got a non-error reply: " + reply);
      }
      stats.garbage += 1;
    }

    if (kill_here[t] != 0) {
      const bool after_read = die % 2 == 0;
      daemon->send(line);
      if (after_read) {
        // Read the verdict, then kill: the restart must re-emit the exact
        // bytes from its duplicate cache when the line is resent.
        note_verdict(daemon->recv());
      }
      restart(/*corrupt=*/die % 3 == 0);
      daemon->send(line);  // resend the in-flight request
      const std::string reply = daemon->recv();
      if (type_of(reply) != "verdict") {
        fail("resend after kill got: " + reply);
      }
      note_verdict(reply);
      continue;
    }

    if (die % 11 == 0 && t + 4 < script.ticks.size()) {
      // Slow-consumer stall: burst several ticks without reading, let the
      // bounded queue absorb or backpressure them, then drain the replies.
      const std::size_t burst = 4;
      for (std::size_t b = 0; b < burst; ++b) {
        daemon->send(script.ticks[t + b]);
      }
      usleep(100000);
      for (std::size_t b = 0; b < burst; ++b) {
        const std::string reply = daemon->recv();
        if (type_of(reply) != "verdict") fail("stall burst got: " + reply);
        note_verdict(reply);
      }
      stats.stalls += 1;
      t += burst - 1;
      continue;
    }

    daemon->send(line);
    const std::string reply = daemon->recv();
    if (type_of(reply) != "verdict") fail("chaos verdict reply was: " + reply);
    note_verdict(reply);
  }

  daemon->send("{\"type\":\"shutdown\"}");
  const std::string chaos_summary = daemon->recv();
  if (type_of(chaos_summary) != "summary") {
    fail("chaos summary reply was: " + chaos_summary);
  }
  daemon->close_stdin();
  daemon->reap();

  // ---- The contract: verdicts and summary byte-identical to the
  // uninterrupted reference.
  if (chaos_verdicts.size() != ref_verdicts.size()) {
    fail("chaos run produced " + std::to_string(chaos_verdicts.size()) +
         " verdicts; reference produced " +
         std::to_string(ref_verdicts.size()));
  }
  for (std::size_t t = 0; t < ref_verdicts.size(); ++t) {
    const auto it = chaos_verdicts.find(t);
    if (it == chaos_verdicts.end()) {
      fail("no chaos verdict for slot " + std::to_string(t));
    }
    if (it->second != ref_verdicts[t]) {
      fail("slot " + std::to_string(t) + " diverged:\n  ref  : " +
           ref_verdicts[t] + "\n  chaos: " + it->second);
    }
  }
  if (chaos_summary != ref_summary) {
    fail("summary diverged:\n  ref  : " + ref_summary +
         "\n  chaos: " + chaos_summary);
  }

  std::cout << "chaos_drill: PASS — " << apps << " apps, " << ticks
            << " ticks; " << stats.kills << " kills ("
            << stats.corruptions << " with checkpoint corruption), "
            << stats.garbage << " garbage lines, " << stats.stalls
            << " consumer stalls; verdicts and summary byte-identical\n";

  if (net_ticks > 0) {
    const int rc =
        run_network_campaign(cli, dir, net_apps, net_ticks, net_kills,
                             interval, seed);
    if (rc != 0) return rc;
  }

  {
    const int rc = run_introspection_campaign(cli, dir);
    if (rc != 0) return rc;
  }

  std::error_code ec;
  if (own_dir) {
    fs::remove_all(dir, ec);
  } else {
    for (const char* sub : {"ref", "chaos", "net", "introspect"}) {
      fs::remove_all(dir / sub, ec);
    }
  }
  return 0;
}
