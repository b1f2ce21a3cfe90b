#include "serve/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/signals.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"

namespace ropus::serve {
namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("cannot make socket non-blocking");
  }
}

/// One accepted connection: buffered in both directions so the arbiter
/// never waits on a peer.
struct Conn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  double last_line = 0.0;      // monotonic time of connect / last full line
  double last_progress = 0.0;  // last time outbuf drained (or was empty)
  bool eof = false;            // peer half-closed; drain inbuf then flush
  bool close_after_flush = false;
  bool shedding = false;       // outbuf over cap: one framed overload sent,
                               // further lines dropped until it drains
};

/// Best-effort flush of buffered output. Returns false when the socket is
/// dead (peer reset); EAGAIN just leaves the rest for the next POLLOUT.
bool flush_conn(Conn& c, double now) {
  while (!c.outbuf.empty()) {
    const ssize_t n =
        ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.outbuf.erase(0, static_cast<std::size_t>(n));
      c.last_progress = now;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  c.last_progress = now;
  return true;
}

/// One HTTP scrape connection: request bytes in, one response out, close.
struct HttpConn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  double started = 0.0;   // connect time, for the scrape timeout
  bool responded = false;
  bool eof = false;
  /// Parked on /debug/profile: the response arrives when the capture
  /// window closes, so this connection is exempt from the scrape timeout.
  bool waiting_profile = false;
};

/// Scrape connections beyond this are answered 503 and closed; scrapes
/// are one-shot, so a small cap is plenty.
constexpr std::size_t kMaxHttpConns = 16;
/// A scraper that has neither sent a full request nor drained its
/// response within this window is dropped.
constexpr double kHttpTimeoutSeconds = 10.0;

std::string http_response(int code, const char* reason,
                          const char* content_type, std::string_view body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// "GET /path?query HTTP/1.x" -> "/path?query"; empty when not a GET.
std::string http_get_path(std::string_view request_line) {
  if (!request_line.starts_with("GET ")) return {};
  request_line.remove_prefix(4);
  const std::size_t space = request_line.find(' ');
  if (space == 0 || space == std::string_view::npos) return {};
  return std::string(request_line.substr(0, space));
}

/// Splits the request target at '?': the path alone.
std::string_view target_path(std::string_view target) {
  return target.substr(0, target.find('?'));
}

/// Returns the raw value of `name` in the target's query string, or
/// nullopt. No percent-decoding: every parameter this server understands
/// (seconds, hz, format) is a plain token.
std::optional<std::string> query_param(std::string_view target,
                                       std::string_view name) {
  const std::size_t mark = target.find('?');
  if (mark == std::string_view::npos) return std::nullopt;
  std::string_view query = target.substr(mark + 1);
  while (!query.empty()) {
    std::size_t amp = query.find('&');
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(0, amp);
    query.remove_prefix(amp == query.size() ? amp : amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (pair.substr(0, eq) == name) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

/// Typed JSON error body for the debug endpoints, mirroring the NDJSON
/// plane's error replies: machine-readable code plus human detail.
std::string http_error_body(std::string_view error, std::string_view detail) {
  json::Writer w;
  w.begin_object();
  w.key("error").value(error);
  w.key("detail").value(detail);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

void TransportOptions::validate() const {
  ROPUS_REQUIRE(max_connections >= 1, "need at least one connection slot");
  ROPUS_REQUIRE(read_timeout_s >= 0.0, "read timeout must be >= 0");
  ROPUS_REQUIRE(write_timeout_s >= 0.0, "write timeout must be >= 0");
  ROPUS_REQUIRE(max_output_bytes >= 256,
                "output buffer cap must hold at least one error reply");
  ROPUS_REQUIRE(http_port >= -1 && http_port <= 65535,
                "http port must be -1 (disabled) or 0..65535");
  ROPUS_REQUIRE(drain_grace_s >= 0.0, "drain grace must be >= 0");
  if (!unix_path.empty()) {
    sockaddr_un probe{};
    ROPUS_REQUIRE(unix_path.size() < sizeof(probe.sun_path),
                  "unix socket path is too long");
  } else {
    ROPUS_REQUIRE(port >= 0 && port <= 65535, "port must be 0..65535");
    ROPUS_REQUIRE(!host.empty(), "tcp transport needs a bind host");
  }
}

SocketServer::SocketServer(const ServeConfig& config,
                           const DaemonOptions& options,
                           const TransportOptions& transport)
    : core_(config, options), transport_(transport) {
  transport_.validate();
  if (!transport_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail_errno("cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, transport_.unix_path.c_str(),
                transport_.unix_path.size() + 1);
    // A stale socket file from a crashed daemon would make bind fail with
    // EADDRINUSE even though nobody is listening — but blindly unlinking
    // would steal the endpoint from a *live* daemon (and, when the two
    // share --journal/--checkpoint paths, let both append to one journal
    // and corrupt it). Probe first: a connect() that succeeds means
    // someone is serving, so fail loudly; a refusal means the file is
    // crash debris and safe to replace.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0;
      ::close(probe);
      if (live) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw IoError("another daemon is already listening on " +
                      transport_.unix_path);
      }
    }
    ::unlink(transport_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      fail_errno("cannot bind " + transport_.unix_path);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail_errno("cannot create tcp socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(transport_.port));
    if (::inet_pton(AF_INET, transport_.host.c_str(), &addr.sin_addr) != 1) {
      throw IoError("cannot parse bind host '" + transport_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      fail_errno("cannot bind " + transport_.host + ":" +
                 std::to_string(transport_.port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      fail_errno("cannot read the bound port back");
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 64) < 0) fail_errno("cannot listen");
  set_nonblocking(listen_fd_);

  if (transport_.http_port >= 0) {
    // The scrape listener is always TCP loopback, even when the NDJSON
    // side is Unix-domain — curl and Prometheus speak TCP.
    http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (http_fd_ < 0) fail_errno("cannot create http socket");
    const int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(transport_.http_port));
    const std::string http_host =
        transport_.unix_path.empty() ? transport_.host : "127.0.0.1";
    if (::inet_pton(AF_INET, http_host.c_str(), &addr.sin_addr) != 1) {
      throw IoError("cannot parse http bind host '" + http_host + "'");
    }
    if (::bind(http_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      fail_errno("cannot bind http port " +
                 std::to_string(transport_.http_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(http_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      fail_errno("cannot read the bound http port back");
    }
    http_port_ = static_cast<int>(ntohs(bound.sin_port));
    if (::listen(http_fd_, 16) < 0) fail_errno("cannot listen on http port");
    set_nonblocking(http_fd_);
  }
}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  if (!transport_.unix_path.empty()) ::unlink(transport_.unix_path.c_str());
}

std::string SocketServer::address() const {
  if (!transport_.unix_path.empty()) return "unix:" + transport_.unix_path;
  return "tcp:" + transport_.host + ":" + std::to_string(port_);
}

int SocketServer::run(std::ostream& err) {
  static obs::Counter& accepted = obs::counter("serve.transport.connections");
  static obs::Counter& refused = obs::counter("serve.transport.refused");
  static obs::Counter& idle_drops =
      obs::counter("serve.transport.read_timeouts");
  static obs::Counter& stall_drops =
      obs::counter("serve.transport.write_timeouts");
  static obs::Counter& sheds = obs::counter("serve.transport.overload_sheds");
  static obs::Counter& lines = obs::counter("serve.transport.lines");
  static obs::Counter& scrapes = obs::counter("serve.http.requests");
  static obs::Counter& scrape_refused = obs::counter("serve.http.refused");
  static obs::Counter& profile_captures =
      obs::counter("serve.http.profile_captures");
  static obs::Counter& profile_refused =
      obs::counter("serve.http.profile_refused");
  static obs::Gauge& open_conns = obs::gauge("serve.transport.open");

  // The poll loop is where tick CPU burns; make sure this thread shows up
  // in /debug/profile captures even when the daemon was not started
  // through ropus_cli (tests construct SocketServer directly).
  obs::prof::register_current_thread();

  const RecoveryReport& recovery = core_.recovery();
  if (recovery.torn_tail) {
    err << "serve: journal had a torn tail; truncated to "
        << recovery.journal_entries << " entries\n";
  }
  if (!recovery.checkpoint_error.empty()) {
    err << "serve: checkpoint unused (" << recovery.checkpoint_error << ")\n";
  }
  err << "serve: listening on " << address();
  if (http_fd_ >= 0) err << " (http on 127.0.0.1:" << http_port_ << ")";
  err << '\n' << std::flush;

  const std::string greeting = core_.ready_line() + "\n";
  std::vector<Conn> conns;
  std::vector<HttpConn> https;
  obs::TimeSeries series;  // scrape-cadence registry samples, /stats.json
  bool draining = false;
  bool signal_drain = false;  // grace drain: hold until the deadline
  double drain_deadline = 0.0;
  int exit_code = 0;

  // One /debug/profile capture at a time, finalized by the poll loop when
  // the window closes. The requesting connection waits (exempt from the
  // scrape timeout); if it disappears meanwhile the capture completes and
  // the result is discarded.
  struct DebugCapture {
    bool active = false;
    double deadline = 0.0;
    std::string format;  // "folded" | "svg" | "json"
    int conn_fd = -1;
  };
  DebugCapture profiling;

  const auto close_conn = [&](std::size_t i) {
    ::close(conns[i].fd);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto close_http = [&](std::size_t i) {
    ::close(https[i].fd);
    https.erase(https.begin() + static_cast<std::ptrdiff_t>(i));
  };

  // GET /healthz: 503 while draining (stop routing work here) or
  // overloaded (a peer is being shed, the last tick blew its deadline, or
  // the journal tail has outrun compaction by 4 checkpoint intervals).
  const auto health = [&]() {
    const char* status = "ok";
    if (draining) {
      status = "draining";
    } else {
      bool overloaded = false;
      for (const Conn& c : conns) overloaded = overloaded || c.shedding;
      const DaemonOptions& opts = core_.options();
      if (opts.tick_deadline_ms > 0.0 &&
          core_.last_tick_ms() > opts.tick_deadline_ms) {
        overloaded = true;
      }
      if (opts.compact_journal &&
          core_.journal_tail_frames() >= 4 * opts.checkpoint_every_slots) {
        overloaded = true;
      }
      if (overloaded) status = "overloaded";
    }
    json::Writer w;
    w.begin_object();
    w.key("status").value(status);
    w.key("slot").value(core_.arbiter().next_slot());
    w.key("apps").value(core_.arbiter().app_count());
    w.key("journal_bytes")
        .value(static_cast<std::int64_t>(core_.journal_bytes()));
    w.key("last_tick_ms").value(core_.last_tick_ms());
    w.key("active_alerts").value(core_.active_alert_count());
    w.key("connections").value(conns.size());
    w.end_object();
    const bool ok = std::string_view(status) == "ok";
    return std::pair<int, std::string>(ok ? 200 : 503, w.str() + "\n");
  };

  // GET /debug/profile?seconds=N&hz=H&format=folded|svg|json: start an
  // on-demand capture and park the connection until the window closes.
  // Refusals are typed JSON errors: 409 while any capture holds the
  // profiler (this endpoint or a --profile-out run), 503 while draining.
  const auto respond_profile = [&](HttpConn& h, std::string_view target) {
    if (draining) {
      h.outbuf += http_response(503, "Service Unavailable",
                                "application/json",
                                http_error_body("draining",
                                                "daemon is draining; no new "
                                                "captures"));
      profile_refused.add();
      return;
    }
    if (!obs::prof::Profiler::supported()) {
      h.outbuf += http_response(
          501, "Not Implemented", "application/json",
          http_error_body("profiler_unsupported",
                          "no per-thread CPU timers on this platform"));
      profile_refused.add();
      return;
    }
    double seconds = 2.0;
    int hz = obs::prof::Profiler::kDefaultHz;
    std::string format = "folded";
    try {
      if (const auto v = query_param(target, "seconds")) {
        seconds = std::stod(*v);
      }
      if (const auto v = query_param(target, "hz")) hz = std::stoi(*v);
      if (const auto v = query_param(target, "format")) format = *v;
    } catch (const std::exception&) {
      seconds = -1.0;  // fall through to the validation reply below
    }
    if (!(seconds >= 0.1 && seconds <= 120.0) || hz < 1 || hz > 1000 ||
        (format != "folded" && format != "svg" && format != "json")) {
      h.outbuf += http_response(
          400, "Bad Request", "application/json",
          http_error_body("bad_request",
                          "want seconds=0.1..120, hz=1..1000, "
                          "format=folded|svg|json"));
      profile_refused.add();
      return;
    }
    if (profiling.active) {
      h.outbuf += http_response(
          409, "Conflict", "application/json",
          http_error_body("profile_capture_active",
                          "another /debug/profile capture is draining; "
                          "retry when it completes"));
      profile_refused.add();
      return;
    }
    if (!obs::prof::Profiler::global().start(hz)) {
      h.outbuf += http_response(
          409, "Conflict", "application/json",
          http_error_body("profiler_busy",
                          "the profiler is held by another capture "
                          "(a --profile-out run?)"));
      profile_refused.add();
      return;
    }
    profiling.active = true;
    profiling.deadline = obs::monotonic_seconds() + seconds;
    profiling.format = format;
    profiling.conn_fd = h.fd;
    h.waiting_profile = true;
  };

  const auto respond = [&](HttpConn& h, std::string_view request_line) {
    scrapes.add();
    const std::string target = http_get_path(request_line);
    const std::string_view path = target_path(target);
    if (path == "/metrics") {
      h.outbuf += http_response(
          200, "OK", "text/plain; version=0.0.4; charset=utf-8",
          obs::to_prometheus(obs::Registry::global().snapshot()));
    } else if (path == "/healthz") {
      const auto [code, body] = health();
      h.outbuf += http_response(
          code, code == 200 ? "OK" : "Service Unavailable",
          "application/json", body);
    } else if (path == "/stats.json") {
      // Splice the live profiler block in after the opening brace; the
      // series document's own keys stay untouched.
      std::string body = series.to_json();
      body.insert(1, "\"profiler\":" + obs::prof::state_json() + ",");
      h.outbuf += http_response(200, "OK", "application/json", body + "\n");
    } else if (path == "/debug/profile") {
      respond_profile(h, target);
    } else if (path.empty()) {
      h.outbuf += http_response(405, "Method Not Allowed", "text/plain",
                                "only GET is supported\n");
    } else {
      h.outbuf += http_response(
          404, "Not Found", "text/plain",
          "try /metrics, /healthz, /stats.json or /debug/profile\n");
    }
    h.responded = true;
  };

  for (;;) {
    const double now = obs::monotonic_seconds();
    series.maybe_sample(obs::Registry::global(), now);
    open_conns.set(static_cast<double>(conns.size()));

    if (profiling.active && now >= profiling.deadline) {
      // The capture window closed: stop, render in the requested format
      // and answer the parked connection (if it is still around).
      const obs::prof::Profile profile = obs::prof::Profiler::global().stop();
      profile_captures.add();
      std::string body;
      const char* content_type = "text/plain; charset=utf-8";
      if (profiling.format == "svg") {
        content_type = "image/svg+xml";
        body = obs::prof::flamegraph_svg(profile.stacks,
                                         "ropus serve /debug/profile");
      } else if (profiling.format == "json") {
        content_type = "application/json";
        body = obs::prof::profile_to_json(profile) + "\n";
      } else {
        char header[160];
        std::snprintf(header, sizeof header,
                      "# ropus serve profile: %llu samples, %d Hz, %.2fs, "
                      "%llu threads, %llu dropped\n",
                      static_cast<unsigned long long>(profile.samples),
                      profile.hz, profile.duration_seconds,
                      static_cast<unsigned long long>(profile.threads),
                      static_cast<unsigned long long>(profile.dropped));
        body = header + obs::prof::to_folded(profile.stacks);
      }
      for (HttpConn& h : https) {
        if (h.waiting_profile && h.fd == profiling.conn_fd) {
          h.outbuf += http_response(200, "OK", content_type, body);
          h.waiting_profile = false;
        }
      }
      profiling = DebugCapture{};
    }
    if ((signals::termination_requested() ||
         stop_.load(std::memory_order_relaxed)) &&
        !draining) {
      exit_code = 130;
      if (transport_.drain_grace_s <= 0.0) break;
      // Grace drain: stop accepting and processing NDJSON work but keep
      // answering scrapes (reporting "draining") for the window, so an
      // orchestrator observes the transition before the process goes.
      draining = true;
      signal_drain = true;
      drain_deadline = now + transport_.drain_grace_s;
      for (Conn& c : conns) c.close_after_flush = true;
    }
    if (draining) {
      bool pending = false;
      for (const Conn& c : conns) pending = pending || !c.outbuf.empty();
      if (signal_drain) {
        if (now >= drain_deadline) break;
      } else if (!pending || now > drain_deadline) {
        break;
      }
    }

    // Connections accepted below are appended after this point; the walks
    // must only touch the prefix that has a matching pollfd entry.
    const std::size_t polled = conns.size();
    const std::size_t polled_http = https.size();
    std::vector<pollfd> fds;
    fds.reserve(polled + polled_http + 2);
    std::ptrdiff_t listen_at = -1;
    std::ptrdiff_t http_at = -1;
    if (!draining) {
      listen_at = static_cast<std::ptrdiff_t>(fds.size());
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    if (http_fd_ >= 0) {
      // The scrape listener stays live while draining: that window is
      // exactly when /healthz has something worth saying.
      http_at = static_cast<std::ptrdiff_t>(fds.size());
      fds.push_back({http_fd_, POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    for (const Conn& c : conns) {
      short events = 0;
      if (!c.eof && !c.close_after_flush && !draining) events |= POLLIN;
      if (!c.outbuf.empty()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const std::size_t http_base = fds.size();
    for (const HttpConn& h : https) {
      short events = 0;
      if (!h.responded) events |= POLLIN;
      if (!h.outbuf.empty()) events |= POLLOUT;
      fds.push_back({h.fd, events, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc < 0 && errno != EINTR) fail_errno("poll failed");

    if (listen_at >= 0 && (fds[static_cast<std::size_t>(listen_at)].revents &
                           POLLIN) != 0) {
      // New connections: greet with the ready line, or refuse over the cap.
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (conns.size() >= transport_.max_connections) {
          const std::string msg =
              error_reply(ProtocolError::kOverload,
                          "connection limit reached") +
              "\n";
          (void)::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
          ::close(fd);
          refused.add();
          continue;
        }
        set_nonblocking(fd);
        Conn c;
        c.fd = fd;
        c.outbuf = greeting;
        c.last_line = now;
        c.last_progress = now;
        conns.push_back(std::move(c));
        accepted.add();
      }
    }
    if (http_at >= 0 &&
        (fds[static_cast<std::size_t>(http_at)].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(http_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (https.size() >= kMaxHttpConns) {
          const std::string msg = http_response(
              503, "Service Unavailable", "text/plain",
              "scrape connection limit reached\n");
          (void)::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
          ::close(fd);
          scrape_refused.add();
          continue;
        }
        set_nonblocking(fd);
        HttpConn h;
        h.fd = fd;
        h.started = now;
        https.push_back(std::move(h));
      }
    }

    // Walk backwards so close_conn's erase cannot skip a neighbour. Only
    // the polled prefix: conns accepted this iteration have no pollfd yet
    // (their greeting goes out on the next POLLOUT).
    for (std::size_t k = polled; k-- > 0;) {
      Conn& c = conns[k];
      const short revents = fds[conn_base + k].revents;
      bool dead = (revents & (POLLERR | POLLNVAL)) != 0;

      if (!dead && (revents & (POLLIN | POLLHUP)) != 0 && !c.eof) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
          if (n > 0) {
            c.inbuf.append(buf, static_cast<std::size_t>(n));
            // The line bound also bounds memory: a peer spraying bytes
            // without a newline is cut off, not buffered forever.
            if (c.inbuf.find('\n') == std::string::npos &&
                c.inbuf.size() > core_.options().max_line_bytes) {
              c.outbuf += error_reply(
                  ProtocolError::kLineTooLong,
                  "request exceeded " +
                      std::to_string(core_.options().max_line_bytes) +
                      " bytes without a newline");
              c.outbuf += '\n';
              c.close_after_flush = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            c.eof = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
      }

      // Parse and serve every complete line buffered so far.
      std::size_t nl = std::string::npos;
      while (!dead && !c.close_after_flush && !draining &&
             (nl = c.inbuf.find('\n')) != std::string::npos) {
        std::string line = c.inbuf.substr(0, nl);
        c.inbuf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        c.last_line = now;
        lines.add();
        if (c.outbuf.size() > transport_.max_output_bytes) {
          // The peer is not reading its replies; shed instead of letting
          // the buffer (and the arbiter's latency) grow without bound.
          // The first over-cap line gets a *framed* overload error — the
          // end marker is what lets Client::transact surface the typed
          // backpressure instead of waiting out its whole deadline — and
          // further lines are dropped outright, making the cap a hard
          // memory bound (cap plus one framed reply) even with the write
          // timeout disabled. Dropped requests are re-driven by the
          // client's id-cached resend once the buffer drains.
          if (!c.shedding) {
            c.shedding = true;
            const std::string id = best_effort_id(line);
            c.outbuf += error_reply(ProtocolError::kOverload,
                                    "connection output buffer is full; "
                                    "drain replies before sending more");
            c.outbuf += '\n';
            if (!id.empty()) {
              c.outbuf += end_reply(id, 1);
              c.outbuf += '\n';
            }
          }
          sheds.add();
          // A slow consumer sheds once per buffered line: without a rate
          // limit one stuck peer writes thousands of identical warnings.
          static log::Every shed_warn(4, 1024);
          if (shed_warn.allow()) {
            ROPUS_LOG(kWarn)
                << "serve: shedding requests from a slow consumer (outbuf "
                << c.outbuf.size() << " bytes over the "
                << transport_.max_output_bytes << "-byte cap; "
                << shed_warn.suppressed() << " similar warnings suppressed)";
          }
          continue;
        }
        c.shedding = false;
        const bool shed =
            should_shed(c.outbuf.size(), transport_.max_output_bytes,
                        core_.last_tick_ms(),
                        core_.options().tick_deadline_ms);
        const DaemonCore::Result result = core_.process_line(line, shed);
        for (const std::string& reply : result.replies) {
          c.outbuf += reply;
          c.outbuf += '\n';
        }
        if (result.shutdown) {
          // Mirror the stdio drain: final checkpoint, then the summary —
          // sent to the requester; every connection is then flushed and
          // closed.
          if (core_.checkpoint_now()) {
            err << "serve: final checkpoint at slot "
                << core_.arbiter().next_slot() << '\n';
          }
          c.outbuf += core_.arbiter().summary();
          c.outbuf += '\n';
          draining = true;
          drain_deadline =
              now + (transport_.write_timeout_s > 0.0
                         ? transport_.write_timeout_s
                         : 5.0);
          for (Conn& other : conns) other.close_after_flush = true;
          break;
        }
      }

      if (!dead && (!c.outbuf.empty() || c.eof || c.close_after_flush)) {
        dead = !flush_conn(c, now);
      }
      if (!dead && transport_.write_timeout_s > 0.0 && !c.outbuf.empty() &&
          now - c.last_progress > transport_.write_timeout_s) {
        stall_drops.add();
        static log::Every stall_warn(4, 256);
        if (stall_warn.allow()) {
          ROPUS_LOG(kWarn)
              << "serve: dropping stalled connection (no write progress for "
              << transport_.write_timeout_s << "s; " << stall_warn.suppressed()
              << " similar warnings suppressed)";
        }
        dead = true;
      }
      if (!dead && !draining && transport_.read_timeout_s > 0.0 && !c.eof &&
          now - c.last_line > transport_.read_timeout_s) {
        idle_drops.add();
        static log::Every idle_warn(4, 256);
        if (idle_warn.allow()) {
          ROPUS_LOG(kWarn)
              << "serve: dropping idle connection (no request line for "
              << transport_.read_timeout_s << "s; " << idle_warn.suppressed()
              << " similar warnings suppressed)";
        }
        dead = true;
      }
      if (dead ||
          ((c.eof || c.close_after_flush) && c.outbuf.empty() && !draining)) {
        close_conn(k);
      }
    }

    // HTTP scrape connections: one request, one response, close. Same
    // backwards-over-the-polled-prefix discipline as the NDJSON walk.
    for (std::size_t k = polled_http; k-- > 0;) {
      HttpConn& h = https[k];
      const short revents = fds[http_base + k].revents;
      bool dead = (revents & (POLLERR | POLLNVAL)) != 0;

      if (!dead && (revents & (POLLIN | POLLHUP)) != 0 && !h.responded &&
          !h.eof) {
        char buf[2048];
        for (;;) {
          const ssize_t n = ::recv(h.fd, buf, sizeof buf, 0);
          if (n > 0) {
            h.inbuf.append(buf, static_cast<std::size_t>(n));
            if (h.inbuf.size() > 8192) {  // scrape requests are tiny
              h.outbuf += http_response(400, "Bad Request", "text/plain",
                                        "request too large\n");
              h.responded = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            h.eof = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
      }
      if (!dead && !h.responded) {
        // Answer once the header block is complete (or the peer finished
        // its request with a half-close); responding mid-headers risks a
        // reset racing the reply past unread input.
        const bool complete =
            h.inbuf.find("\r\n\r\n") != std::string::npos ||
            h.inbuf.find("\n\n") != std::string::npos ||
            (h.eof && h.inbuf.find('\n') != std::string::npos);
        if (complete) {
          std::string_view first(h.inbuf);
          first = first.substr(0, h.inbuf.find('\n'));
          if (!first.empty() && first.back() == '\r') {
            first.remove_suffix(1);
          }
          respond(h, first);
        } else if (h.eof) {
          dead = true;  // closed before sending a request
        }
      }

      if (!dead && !h.outbuf.empty()) {
        while (!h.outbuf.empty()) {
          const ssize_t n =
              ::send(h.fd, h.outbuf.data(), h.outbuf.size(), MSG_NOSIGNAL);
          if (n > 0) {
            h.outbuf.erase(0, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          dead = true;
          break;
        }
      }
      if (!dead && h.responded && h.outbuf.empty() && !h.waiting_profile) {
        dead = true;  // served
      }
      if (!dead && !h.waiting_profile &&
          now - h.started > kHttpTimeoutSeconds) {
        dead = true;
      }
      if (dead) close_http(k);
    }
  }

  for (Conn& c : conns) ::close(c.fd);
  conns.clear();
  for (HttpConn& h : https) ::close(h.fd);
  https.clear();
  if (profiling.active) {
    // Shutdown landed mid-capture: release the profiler; there is no
    // connection left to hand the result to.
    (void)obs::prof::Profiler::global().stop();
  }
  if (exit_code == 130) {
    // Signal path: persist and note, like the stdio loop; there is no
    // single peer to hand the summary to.
    if (core_.checkpoint_now()) {
      err << "serve: final checkpoint at slot " << core_.arbiter().next_slot()
          << '\n';
    }
  }
  err << "serve: "
      << (exit_code == 130 ? "terminated by signal" : "drained") << " after "
      << core_.arbiter().next_slot() << " slots, " << core_.arbiter().app_count()
      << " apps\n"
      << std::flush;
  return exit_code;
}

}  // namespace ropus::serve
