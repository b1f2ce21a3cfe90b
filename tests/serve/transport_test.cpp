// Socket transport: round trips over UDS and TCP, the greeting, retry
// idempotency across reconnects, and the fault ladder — slowloris
// disconnects, oversized lines, the connection cap — none of which may
// disturb the arbiter's journaled state.
#include "serve/transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <poll.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/profiler.h"
#include "serve/client.h"

namespace ropus::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWeekSlots = 7 * 24;

ServeConfig small_config() {
  ServeConfig config;
  config.minutes_per_sample = 60.0;
  config.slots_per_day = 24;
  config.servers = 2;
  config.server_cpus = 8.0;
  return config;
}

std::string admit_line(const std::string& app, const std::string& id = "") {
  std::string profile = "1.5";
  for (std::size_t i = 1; i < kWeekSlots; ++i) profile += ",1.5";
  std::string head = R"({"type":"admit",)";
  if (!id.empty()) head += R"("id":")" + id + R"(",)";
  return head + R"("app":")" + app + R"(","profile":[)" + profile + "]}";
}

std::string type_of(const std::string& reply) {
  const json::Value v = json::parse(reply);
  const json::Value* t = v.find("type");
  return t != nullptr ? t->as_string() : "";
}

/// Raw blocking UDS client for the misbehaving-peer tests (Client is too
/// well-behaved to send half a line).
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void send(const std::string& data) {
    (void)::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
  }
  /// Next line, or "" on EOF/timeout.
  std::string read_line(int timeout_ms = 3000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return {};
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return {};
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }
  /// True when the peer closed (recv returns 0) within the timeout.
  bool closed_by_peer(int timeout_ms = 3000) {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char tmp[256];
    return ::recv(fd_, tmp, sizeof tmp, 0) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid, not just the gtest seed: ctest -j runs each test of
    // this suite as its own process with the same seed, and a shared dir
    // would let one test's remove_all unlink another's listening socket.
    dir_ = fs::temp_directory_path() /
           ("ropus_tp_" + std::to_string(::getpid()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(dir_);
    sock_ = (dir_ / (std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name())
                         .substr(0, 24) +
                     ".sock"))
                .string();
  }
  void TearDown() override {
    // A test that failed before its shutdown leaves the server running;
    // stop it so the join cannot hang the whole suite.
    if (server_thread_.joinable()) {
      if (server_) server_->request_stop();
      server_thread_.join();
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Starts a UDS server on sock_ in a background thread; returns once it
  /// accepts connections (bind happens in the constructor, so immediately).
  void start(const DaemonOptions& options, TransportOptions transport) {
    transport.unix_path = sock_;
    server_ = std::make_unique<SocketServer>(small_config(), options,
                                             transport);
    server_thread_ = std::thread([this] { exit_code_ = server_->run(err_); });
  }

  void shutdown_and_join() {
    ClientOptions copts;
    copts.unix_path = sock_;
    copts.deadline_s = 5.0;
    Client client(copts);
    client.transact(R"({"type":"shutdown"})");
    // The summary is the stream's closing line, written after the end
    // marker — transact() must not swallow it.
    EXPECT_EQ(client.read_closing_line().substr(0, 17),
              R"({"type":"summary")");
    server_thread_.join();
  }

  fs::path dir_;
  std::string sock_;
  std::unique_ptr<SocketServer> server_;
  std::thread server_thread_;
  std::ostringstream err_;
  int exit_code_ = -1;
};

TEST_F(TransportTest, UnixRoundTripWithGreetingAndFraming) {
  start({}, {});
  ClientOptions copts;
  copts.unix_path = sock_;
  copts.deadline_s = 5.0;
  Client client(copts);

  std::vector<std::string> replies = client.transact(admit_line("web"));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "admission");
  EXPECT_EQ(type_of(client.greeting()), "ready");

  replies =
      client.transact(R"({"type":"tick","slot":0,"demand":{"web":1.2}})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "verdict");

  // A forward gap fills missing slots: multi-line response, one end marker.
  replies =
      client.transact(R"({"type":"tick","slot":3,"demand":{"web":1.0}})");
  EXPECT_EQ(replies.size(), 3u);

  replies = client.transact(R"({"type":"depart","app":"web"})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "departure");

  shutdown_and_join();
  EXPECT_EQ(exit_code_, 0);
}

TEST_F(TransportTest, TcpEphemeralPortRoundTrip) {
  DaemonOptions options;
  TransportOptions transport;  // unix_path empty -> TCP
  SocketServer server(small_config(), options, transport);
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.address(),
            "tcp:127.0.0.1:" + std::to_string(server.port()));
  std::ostringstream err;
  std::thread runner([&] { server.run(err); });

  ClientOptions copts;
  copts.port = server.port();
  copts.deadline_s = 5.0;
  Client client(copts);
  const std::vector<std::string> replies = client.transact(admit_line("web"));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "admission");
  client.transact(R"({"type":"shutdown"})");
  runner.join();
}

TEST_F(TransportTest, RetriedRequestIdNeverDoubleAdmits) {
  start({}, {});
  const std::string request = admit_line("web", "retry-1");

  RawConn first(sock_);
  ASSERT_TRUE(first.connected());
  EXPECT_EQ(type_of(first.read_line()), "ready");
  first.send(request + "\n");
  const std::string original = first.read_line();
  EXPECT_EQ(type_of(original), "admission");

  // The client "lost" the reply: reconnect, resend the same id. The
  // arbiter answers from its id cache with the original bytes — the app
  // is admitted exactly once.
  RawConn second(sock_);
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(type_of(second.read_line()), "ready");
  second.send(request + "\n");
  const std::string replay = second.read_line();
  EXPECT_EQ(replay, original);
  EXPECT_EQ(type_of(second.read_line()), "end");

  // A *different* id is a real duplicate admission and is refused.
  second.send(admit_line("web", "retry-2") + "\n");
  const std::string dup = second.read_line();
  EXPECT_EQ(type_of(dup), "error");
  EXPECT_NE(dup.find("duplicate_app"), std::string::npos);

  shutdown_and_join();
}

TEST_F(TransportTest, SlowlorisConnectionIsDropped) {
  TransportOptions transport;
  transport.read_timeout_s = 0.2;
  start({}, transport);

  RawConn loris(sock_);
  ASSERT_TRUE(loris.connected());
  EXPECT_EQ(type_of(loris.read_line()), "ready");
  loris.send(R"({"type":"tick","slo)");  // never finishes the line
  EXPECT_TRUE(loris.closed_by_peer(3000));

  // The daemon is still serving others.
  RawConn healthy(sock_);
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(type_of(healthy.read_line()), "ready");
  shutdown_and_join();
}

TEST_F(TransportTest, OversizedLineGetsTypedErrorThenDisconnect) {
  DaemonOptions options;
  options.max_line_bytes = 128;
  start(options, {});

  RawConn conn(sock_);
  ASSERT_TRUE(conn.connected());
  EXPECT_EQ(type_of(conn.read_line()), "ready");
  conn.send(std::string(1024, 'x'));  // no newline, over the bound
  const std::string reply = conn.read_line();
  EXPECT_EQ(type_of(reply), "error");
  EXPECT_NE(reply.find("line_too_long"), std::string::npos);
  EXPECT_TRUE(conn.closed_by_peer(3000));
  shutdown_and_join();
}

TEST_F(TransportTest, ConnectionCapRefusesWithOverloadError) {
  TransportOptions transport;
  transport.max_connections = 1;
  start({}, transport);

  {
    RawConn first(sock_);
    ASSERT_TRUE(first.connected());
    EXPECT_EQ(type_of(first.read_line()), "ready");

    RawConn second(sock_);
    ASSERT_TRUE(second.connected());
    const std::string refusal = second.read_line();
    EXPECT_EQ(type_of(refusal), "error");
    EXPECT_NE(refusal.find("overload"), std::string::npos);
    EXPECT_TRUE(second.closed_by_peer(3000));
  }  // release the only slot so the shutdown client can connect

  shutdown_and_join();
}

TEST_F(TransportTest, MalformedRequestWithIdIsStillFramed) {
  start({}, {});
  RawConn conn(sock_);
  ASSERT_TRUE(conn.connected());
  EXPECT_EQ(type_of(conn.read_line()), "ready");
  conn.send(R"({"type":"nope","id":"q-7"})" "\n");
  const std::string error = conn.read_line();
  EXPECT_EQ(type_of(error), "error");
  const std::string end = conn.read_line();
  EXPECT_EQ(type_of(end), "end");
  EXPECT_NE(end.find("q-7"), std::string::npos);
  shutdown_and_join();
}

TEST_F(TransportTest, LiveSocketIsNotStolenButStaleFileIsReplaced) {
  start({}, {});
  // A second daemon pointed at the same --socket must fail loudly: were
  // the path silently re-bound, both processes could append to one
  // journal and corrupt it.
  TransportOptions second;
  second.unix_path = sock_;
  EXPECT_THROW(SocketServer(small_config(), DaemonOptions{}, second),
               IoError);
  // ...and the live daemon keeps serving on its endpoint.
  RawConn healthy(sock_);
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(type_of(healthy.read_line()), "ready");
  shutdown_and_join();
  server_.reset();  // unlinks the socket path

  // A *stale* file — bound once, never unlinked, nobody listening — is
  // crash debris and must be replaced, not EADDRINUSE'd.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock_.c_str(), sock_.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ::close(stale);  // file remains, listener gone
  start({}, {});
  RawConn revived(sock_);
  ASSERT_TRUE(revived.connected());
  EXPECT_EQ(type_of(revived.read_line()), "ready");
  shutdown_and_join();
}

TEST_F(TransportTest, OverloadShedIsFramedAndAHardBound) {
  TransportOptions transport;
  transport.max_output_bytes = 256;  // the minimum the validator allows
  transport.write_timeout_s = 0.0;   // the cap must bound memory alone
  start({}, transport);

  RawConn conn(sock_);
  ASSERT_TRUE(conn.connected());
  EXPECT_EQ(type_of(conn.read_line()), "ready");

  // One burst, read nothing: the line loop appends replies to outbuf
  // without flushing between lines, so the cap is crossed mid-batch and
  // the over-cap lines hit the shed path.
  std::string burst;
  const int kLines = 40;
  for (int i = 0; i < kLines; ++i) {
    burst += R"({"type":"tick","id":"burst-)" + std::to_string(i) +
             R"(","slot":)" + std::to_string(i) +
             R"(,"demand":{"web":1.0}})" "\n";
  }
  conn.send(burst);

  // Every reply the daemon does emit must be properly framed: each id'd
  // request that gets any reply — including the typed overload error —
  // is terminated by an end marker, so Client::transact never hangs on a
  // shed request until its deadline.
  int ends = 0;
  int overloads = 0;
  std::string pending_type;
  for (;;) {
    const std::string line = conn.read_line(1000);
    if (line.empty()) break;  // drained: nothing more within the timeout
    const std::string type = type_of(line);
    if (type == "error" && line.find("overload") != std::string::npos) {
      ++overloads;
      const std::string end = conn.read_line(1000);
      ASSERT_EQ(type_of(end), "end") << "overload error was not framed";
    } else if (type == "end") {
      ++ends;
    }
  }
  // The cap actually shed: exactly one framed overload error per shed
  // episode (not one per over-cap line — that regrowth is what made the
  // cap soft), and some of the burst was dropped outright.
  EXPECT_GE(overloads, 1);
  EXPECT_LT(ends + overloads, kLines) << "no lines were dropped";

  // The connection survives shedding: once the backlog is drained the
  // shed latch resets and fresh requests are served normally.
  conn.send(R"({"type":"tick","id":"after","slot":)" +
            std::to_string(kLines) + R"(,"demand":{"web":1.0}})" "\n");
  std::string type;
  do {
    const std::string line = conn.read_line(3000);
    ASSERT_FALSE(line.empty());
    type = type_of(line);
  } while (type != "end");
  shutdown_and_join();
}

TEST_F(TransportTest, SocketStateSurvivesRestartViaJournal) {
  DaemonOptions options;
  options.journal_path = dir_ / "t.journal";
  options.checkpoint_path = dir_ / "t.ckpt";
  options.compact_journal = true;
  start(options, {});
  {
    ClientOptions copts;
    copts.unix_path = sock_;
    copts.deadline_s = 5.0;
    Client client(copts);
    client.transact(admit_line("web"));
    client.transact(R"({"type":"tick","slot":0,"demand":{"web":1.2}})");
    client.transact(R"({"type":"shutdown"})");
  }
  server_thread_.join();
  server_.reset();  // releases the socket path

  // Restart on the same files: the shutdown checkpoint (+ compacted
  // journal) restores the state, and the greeting says so. The recovered
  // id cache still remembers the first client's ids, so this client needs
  // its own prefix — reusing "cli-0" would replay the cached admission.
  start(options, {});
  ClientOptions copts;
  copts.unix_path = sock_;
  copts.deadline_s = 5.0;
  copts.id_prefix = "second";
  Client client(copts);
  const std::vector<std::string> replies =
      client.transact(R"({"type":"tick","slot":1,"demand":{"web":1.4}})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "verdict");
  const json::Value greeting = json::parse(client.greeting());
  EXPECT_EQ(greeting.at("recovery").as_string(), "checkpoint+journal");
  EXPECT_EQ(static_cast<int>(greeting.at("apps").as_number()), 1);
  shutdown_and_join();
}

/// One-shot request against the HTTP scrape listener: connects to
/// 127.0.0.1:port, sends the raw request text, reads to EOF.
std::string http_get(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string reply;
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) break;
    char tmp[8192];
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) break;
    reply.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string http_body(const std::string& reply) {
  const std::size_t at = reply.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : reply.substr(at + 4);
}

TEST_F(TransportTest, HttpMetricsHealthzAndStats) {
  TransportOptions transport;
  transport.http_port = 0;  // ephemeral
  start({}, transport);
  ASSERT_GT(server_->http_port(), 0);
  const int port = server_->http_port();

  // Drive some real traffic first so the scrape has content.
  ClientOptions copts;
  copts.unix_path = sock_;
  copts.deadline_s = 5.0;
  Client client(copts);
  (void)client.transact(admit_line("web"));
  (void)client.transact(R"({"type":"tick","slot":0,"demand":{"web":1.0}})");

  const std::string metrics = http_get(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("ropus_serve_transport_lines_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE ropus_serve_transport_connections_total"
                         " counter"),
            std::string::npos);

  const std::string healthz = http_get(port, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(healthz.rfind("HTTP/1.0 200 OK", 0), 0u) << healthz;
  const json::Value health = json::parse(http_body(healthz));
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("apps").as_number(), 1.0);
  EXPECT_EQ(health.at("active_alerts").as_number(), 0.0);

  const std::string stats = http_get(port, "GET /stats.json HTTP/1.0\r\n\r\n");
  EXPECT_EQ(stats.rfind("HTTP/1.0 200 OK", 0), 0u) << stats;
  const json::Value doc = json::parse(http_body(stats));
  EXPECT_GE(doc.at("samples").as_number(), 1.0);

  // The scrape counter itself moved — it is in the registry it exports.
  const std::string again = http_get(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(again.find("ropus_serve_http_requests_total"), std::string::npos);

  EXPECT_EQ(http_get(port, "GET /nope HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(http_get(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);

  // NDJSON service is untouched by the scrapes.
  const std::vector<std::string> replies =
      client.transact(R"({"type":"tick","slot":1,"demand":{"web":1.0}})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "verdict");
  shutdown_and_join();
}

TEST_F(TransportTest, HealthzReportsDrainingDuringGraceAndExits130) {
  TransportOptions transport;
  transport.http_port = 0;
  transport.drain_grace_s = 1.5;
  start({}, transport);
  ASSERT_GT(server_->http_port(), 0);
  const int port = server_->http_port();

  const std::string before = http_get(port, "GET /healthz HTTP/1.0\r\n\r\n");
  ASSERT_EQ(before.rfind("HTTP/1.0 200 OK", 0), 0u) << before;

  // Stop request enters the grace window: NDJSON stops, but the scrape
  // listener keeps answering and reports the transition with a 503.
  server_->request_stop();
  std::string during;
  for (int attempt = 0; attempt < 50; ++attempt) {
    during = http_get(port, "GET /healthz HTTP/1.0\r\n\r\n");
    if (during.rfind("HTTP/1.0 503", 0) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(during.rfind("HTTP/1.0 503", 0), 0u) << during;
  EXPECT_EQ(json::parse(http_body(during)).at("status").as_string(),
            "draining");

  server_thread_.join();
  EXPECT_EQ(exit_code_, 130);
}

TEST_F(TransportTest, HttpDebugProfileCapturesInEveryFormat) {
  if (!obs::prof::Profiler::supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  TransportOptions transport;
  transport.http_port = 0;
  start({}, transport);
  ASSERT_GT(server_->http_port(), 0);
  const int port = server_->http_port();

  ClientOptions copts;
  copts.unix_path = sock_;
  copts.deadline_s = 5.0;
  Client client(copts);
  (void)client.transact(admit_line("web"));

  // The profiler samples CPU time, so an idle poll loop produces nothing:
  // keep the daemon ticking while the capture window is open.
  std::atomic<bool> stop_load{false};
  std::thread load([&] {
    Client load_client(copts);
    long slot = 1;
    while (!stop_load.load()) {
      (void)load_client.transact(R"({"type":"tick","slot":)" +
                                 std::to_string(slot++) +
                                 R"(,"demand":{"web":1.0}})");
    }
  });
  const std::string folded = http_get(
      port, "GET /debug/profile?seconds=0.4&hz=499 HTTP/1.0\r\n\r\n");
  stop_load = true;
  load.join();
  EXPECT_EQ(folded.rfind("HTTP/1.0 200 OK", 0), 0u) << folded;
  const std::string folded_body = http_body(folded);
  EXPECT_NE(folded_body.find("# ropus serve profile:"), std::string::npos);
  // The body round-trips through the folded parser (comments skipped).
  EXPECT_NO_THROW((void)obs::prof::parse_folded(folded_body));

  const std::string svg = http_get(
      port,
      "GET /debug/profile?seconds=0.2&format=svg HTTP/1.0\r\n\r\n");
  EXPECT_EQ(svg.rfind("HTTP/1.0 200 OK", 0), 0u) << svg;
  EXPECT_NE(svg.find("Content-Type: image/svg+xml"), std::string::npos);
  EXPECT_EQ(http_body(svg).rfind("<svg", 0), 0u);

  const std::string as_json = http_get(
      port,
      "GET /debug/profile?seconds=0.2&format=json HTTP/1.0\r\n\r\n");
  EXPECT_EQ(as_json.rfind("HTTP/1.0 200 OK", 0), 0u) << as_json;
  const json::Value doc = json::parse(http_body(as_json));
  EXPECT_EQ(doc.at("schema").as_string(), "ropus.profile.v1");

  // Both stats surfaces report the finished captures.
  const std::string stats =
      http_get(port, "GET /stats.json HTTP/1.0\r\n\r\n");
  const json::Value stats_doc = json::parse(http_body(stats));
  EXPECT_GE(stats_doc.at("profiler").at("captures").as_number(), 3.0);
  const std::vector<std::string> replies =
      client.transact(R"({"type":"stats"})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GE(json::parse(replies[0]).at("profiler").at("captures").as_number(),
            3.0);
  shutdown_and_join();
}

TEST_F(TransportTest, HttpDebugProfileRejectsBadArgsAndConcurrentCaptures) {
  TransportOptions transport;
  transport.http_port = 0;
  start({}, transport);
  ASSERT_GT(server_->http_port(), 0);
  const int port = server_->http_port();

  for (const char* bad :
       {"GET /debug/profile?seconds=abc HTTP/1.0\r\n\r\n",
        "GET /debug/profile?seconds=500 HTTP/1.0\r\n\r\n",
        "GET /debug/profile?hz=0 HTTP/1.0\r\n\r\n",
        "GET /debug/profile?format=xml HTTP/1.0\r\n\r\n"}) {
    const std::string reply = http_get(port, bad);
    EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u) << bad << "\n" << reply;
    EXPECT_NE(http_body(reply).find("bad_request"), std::string::npos);
  }

  if (!obs::prof::Profiler::supported()) {
    shutdown_and_join();
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }

  // While something else (a --profile-out run, here: the test) holds the
  // profiler, the endpoint refuses with a typed 409.
  ASSERT_TRUE(obs::prof::Profiler::global().start());
  const std::string busy =
      http_get(port, "GET /debug/profile?seconds=0.2 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(busy.rfind("HTTP/1.0 409", 0), 0u) << busy;
  EXPECT_NE(http_body(busy).find("profiler_busy"), std::string::npos);
  (void)obs::prof::Profiler::global().stop();

  // A second HTTP capture while one is parked also gets a typed 409. The
  // first window is long enough that the second request cannot slip in
  // after it finishes.
  std::thread first([&] {
    const std::string ok = http_get(
        port, "GET /debug/profile?seconds=2 HTTP/1.0\r\n\r\n");
    EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK", 0), 0u) << ok;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::string second =
      http_get(port, "GET /debug/profile?seconds=0.2 HTTP/1.0\r\n\r\n");
  first.join();
  EXPECT_EQ(second.rfind("HTTP/1.0 409", 0), 0u) << second;
  EXPECT_NE(http_body(second).find("profile_capture_active"),
            std::string::npos);
  shutdown_and_join();
}

TEST_F(TransportTest, StatsVerbOverSocket) {
  start({}, {});
  ClientOptions copts;
  copts.unix_path = sock_;
  copts.deadline_s = 5.0;
  Client client(copts);
  (void)client.transact(admit_line("web"));

  const std::vector<std::string> replies =
      client.transact(R"({"type":"stats"})");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(type_of(replies[0]), "stats");
  const json::Value stats = json::parse(replies[0]);
  EXPECT_EQ(stats.at("apps").as_number(), 1.0);
  EXPECT_EQ(stats.at("slot").as_number(), 0.0);
  EXPECT_TRUE(stats.find("tick_latency_seconds") != nullptr);
  shutdown_and_join();
}

}  // namespace
}  // namespace ropus::serve
