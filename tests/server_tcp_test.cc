// In-process tests of the fairbc_server front end (service/server.h):
// request validation (the `alpha=-1` wrap class of bugs), uniform
// quit/stop stream semantics, and the concurrent TCP server — ≥4
// simultaneous client sessions with interleaved load/query/drop, session
// ids in every response, the --max-sessions admission bound, and the
// stop-then-drain shutdown. Runs the real sockets and session threads in
// this process so the TSan CI job sees every interleaving.

#include "service/server.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/graph_catalog.h"
#include "service/query_executor.h"
#include "service/response_json.h"
#include "service/wire.h"
#include "session_test_util.h"

namespace fairbc {
namespace {

BipartiteGraph ServerTestGraph(std::uint64_t seed = 29) {
  AffiliationConfig config;
  config.num_upper = 200;
  config.num_lower = 200;
  config.num_communities = 12;
  config.seed = seed;
  return MakeAffiliation(config);
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = json.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  std::string value;
  if (json[pos] == '"') {
    for (++pos; pos < json.size() && json[pos] != '"'; ++pos) {
      value += json[pos];
    }
  } else {
    for (; pos < json.size() && json[pos] != ',' && json[pos] != '}'; ++pos) {
      value += json[pos];
    }
  }
  return value;
}

// --- request validation -----------------------------------------------------

Status BuildStatus(const std::string& line) {
  auto built = BuildQueryRequest(ParseRequestLine(line));
  return built.ok() ? Status::OK() : built.status();
}

TEST(BuildQueryRequestTest, RejectsNegativeAndOutOfRangeNumerics) {
  // The original bug: `alpha=-1` wrapped through static_cast<uint32_t>
  // to 4294967295 and silently ran an absurd query.
  EXPECT_FALSE(BuildStatus("query graph=g alpha=-1").ok());
  EXPECT_FALSE(BuildStatus("query graph=g beta=-7").ok());
  EXPECT_FALSE(BuildStatus("query graph=g delta=-1").ok());
  EXPECT_FALSE(BuildStatus("query graph=g alpha=4294967295").ok());
  EXPECT_FALSE(BuildStatus("query graph=g alpha=abc").ok());
  EXPECT_FALSE(BuildStatus("query graph=g alpha=3x").ok());
  EXPECT_FALSE(BuildStatus("query graph=g threads=-2").ok());
  EXPECT_FALSE(BuildStatus("query graph=g threads=9999").ok());
  EXPECT_FALSE(BuildStatus("query graph=g budget=-1").ok());
  const Status alpha = BuildStatus("query graph=g alpha=-1");
  EXPECT_NE(alpha.ToString().find("alpha"), std::string::npos);
}

TEST(BuildQueryRequestTest, ValidatesThetaIntoUnitInterval) {
  EXPECT_FALSE(BuildStatus("query graph=g theta=-0.1").ok());
  EXPECT_FALSE(BuildStatus("query graph=g theta=1.5").ok());
  EXPECT_FALSE(BuildStatus("query graph=g theta=nope").ok());
  EXPECT_TRUE(BuildStatus("query graph=g theta=0").ok());
  EXPECT_TRUE(BuildStatus("query graph=g theta=1").ok());
  EXPECT_TRUE(BuildStatus("query graph=g theta=0.4").ok());
}

// Unknown names are errors, the way a bad rank is: ordering=idd and
// pruning=colorfull used to run as the defaults.
TEST(BuildQueryRequestTest, RejectsUnknownOrderingAndPruning) {
  for (const char* line :
       {"query graph=g ordering=idd", "query graph=g pruning=colorfull",
        "query graph=g ordering=", "query graph=g rank=heavy"}) {
    const Status st = BuildStatus(line);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << line;
  }
  EXPECT_NE(BuildStatus("query graph=g ordering=idd").ToString().find(
                "bad ordering (deg|id)"),
            std::string::npos);
  EXPECT_NE(BuildStatus("query graph=g pruning=colorfull").ToString().find(
                "bad pruning (colorful|core|none)"),
            std::string::npos);
  auto built = BuildQueryRequest(
      ParseRequestLine("query graph=g ordering=id pruning=core"));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().options.ordering, VertexOrdering::kId);
  EXPECT_EQ(built.value().options.pruning, PruningLevel::kCore);
  built = BuildQueryRequest(
      ParseRequestLine("query graph=g ordering=deg pruning=none"));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().options.ordering, VertexOrdering::kDegreeDesc);
  EXPECT_EQ(built.value().options.pruning, PruningLevel::kNone);
  EXPECT_TRUE(BuildStatus("query graph=g pruning=colorful").ok());
}

TEST(BuildQueryRequestTest, AcceptsDefaultsAndBoundaryValues) {
  auto built = BuildQueryRequest(
      ParseRequestLine("query graph=g alpha=0 beta=1000000000 delta=0"));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().params.alpha, 0u);
  EXPECT_EQ(built.value().params.beta, 1'000'000'000u);
}

// A key outside the request fields is an error naming it, not a silently
// ignored typo: `top-k` (the CLI's spelling), `alpah` and, in a sweep,
// `top_kk` or a scalar alpha the grid would override all used to run.
TEST(BuildQueryRequestTest, RejectsUnknownKeys) {
  for (const char* key : {"top-k", "alpah", "budget_s"}) {
    const Status st = BuildStatus(std::string("query graph=g ") + key + "=1");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(st.message().find(std::string("\"") + key + "\""),
              std::string::npos)
        << st.message();
  }
  EXPECT_TRUE(
      BuildStatus("query graph=g cache=0 rid=r-1 stream=1 top_k=2").ok());

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServerTestGraph()).ok());
  QueryExecutor executor(catalog, {});
  ServerSession session(catalog, executor, /*id=*/1);
  bool stop = false;
  std::string response;
  for (const char* line : {"sweep graph=g alphas=2 top_kk=3",
                           "sweep graph=g alphas=2,3 beta=2",
                           "query graph=g alpah=5"}) {
    ASSERT_TRUE(testing::HandleLine(session, line, &response, &stop));
    EXPECT_EQ(JsonField(response, "ok"), "false") << line << response;
    EXPECT_NE(response.find("does not take"), std::string::npos) << response;
  }
}

TEST(ServerSessionTest, SweepRejectsNegativeAndMalformedLists) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServerTestGraph()).ok());
  QueryExecutor executor(catalog, {});
  ServerSession session(catalog, executor, /*id=*/7);

  bool stop = false;
  std::string response;
  // The original bug: std::stoul("-1") wraps instead of failing.
  ASSERT_TRUE(testing::HandleLine(session, "sweep graph=g alphas=-1",
                                  &response, &stop));
  EXPECT_EQ(JsonField(response, "ok"), "false") << response;
  ASSERT_TRUE(testing::HandleLine(session, "sweep graph=g alphas=1,zap betas=2",
                                  &response, &stop));
  EXPECT_EQ(JsonField(response, "ok"), "false") << response;
  ASSERT_TRUE(testing::HandleLine(
      session, "sweep graph=g alphas=2 betas=2 deltas=1,2", &response, &stop));
  EXPECT_EQ(JsonField(response, "ok"), "true") << response;
  EXPECT_EQ(JsonField(response, "queries"), "2");
  EXPECT_EQ(JsonField(response, "session"), "7");
}

TEST(ServerSessionTest, QueryErrorsCarrySessionIdAndOkFalse) {
  GraphCatalog catalog;
  QueryExecutor executor(catalog, {});
  ServerSession session(catalog, executor, /*id=*/3);
  bool stop = false;
  std::string response;
  ASSERT_TRUE(testing::HandleLine(session, "query graph=g alpha=-1", &response,
                                  &stop));
  EXPECT_EQ(JsonField(response, "ok"), "false");
  EXPECT_EQ(JsonField(response, "session"), "3");
  EXPECT_NE(response.find("alpha"), std::string::npos);
}

// --- stream (stdin mode) semantics ------------------------------------------

TEST(ServeStreamTest, StopRequestsServerShutdownQuitDoesNot) {
  GraphCatalog catalog;
  QueryExecutor executor(catalog, {});

  {
    ServerSession session(catalog, executor, 0);
    std::istringstream in("ping\nstop\nping\n");
    std::ostringstream out;
    EXPECT_TRUE(ServeStream(in, out, session));  // stop latched.
    // stop ends the session: the trailing ping is never answered.
    EXPECT_EQ(out.str().find("ping", out.str().find("stop")),
              std::string::npos);
  }
  {
    ServerSession session(catalog, executor, 0);
    std::istringstream in("ping\nquit\n");
    std::ostringstream out;
    EXPECT_FALSE(ServeStream(in, out, session));
  }
  {  // End of stream without quit/stop: clean non-stop return.
    ServerSession session(catalog, executor, 0);
    std::istringstream in("ping\n");
    std::ostringstream out;
    EXPECT_FALSE(ServeStream(in, out, session));
    EXPECT_EQ(JsonField(out.str(), "session"), "0");
  }
}

// --- TCP --------------------------------------------------------------------

/// Minimal blocking line client against 127.0.0.1:port.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return connected_; }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  /// Writes `data` verbatim (no newline appended).
  bool SendRaw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      // MSG_NOSIGNAL: sending to a closed session must fail, not SIGPIPE
      // the test binary.
      ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one \n-terminated line ("" on EOF/error).
  std::string RecvLine() {
    std::string line;
    char c;
    for (;;) {
      ssize_t n = ::read(fd_, &c, 1);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line += c;
    }
  }

  std::string Ask(const std::string& line) {
    if (!Send(line)) return "";
    return RecvLine();
  }

  /// Bounds every later read: RecvLine gives "" after `ms` of silence.
  void SetRecvTimeout(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// A server running in a background thread for the duration of a test.
class ServerFixture {
 public:
  explicit ServerFixture(unsigned max_sessions = 8,
                         std::size_t cache_capacity = 256)
      : ServerFixture(WithMaxSessions(max_sessions), cache_capacity) {}

  /// Full-options constructor for admission/deadline/request-cap tests;
  /// `tcp.port` is forced ephemeral.
  explicit ServerFixture(TcpServerOptions tcp, std::size_t cache_capacity = 256,
                         unsigned executor_threads = 2) {
    QueryExecutorOptions options;
    options.num_threads = executor_threads;
    options.cache_capacity = cache_capacity;
    executor_ = std::make_unique<QueryExecutor>(catalog_, options);
    tcp.port = 0;  // ephemeral
    server_ = std::make_unique<TcpServer>(catalog_, *executor_, tcp);
    FAIRBC_CHECK(server_->Listen().ok());
    serve_thread_ = std::thread([this] {
      server_->Serve();
      serve_returned_.store(true, std::memory_order_release);
    });
  }

  ~ServerFixture() {
    server_->RequestStop();
    serve_thread_.join();
  }

  int port() const { return server_->port(); }
  TcpServer& server() { return *server_; }
  GraphCatalog& catalog() { return catalog_; }
  QueryExecutor& executor() { return *executor_; }
  bool serve_returned() const {
    return serve_returned_.load(std::memory_order_acquire);
  }

 private:
  static TcpServerOptions WithMaxSessions(unsigned max_sessions) {
    TcpServerOptions tcp;
    tcp.max_sessions = max_sessions;
    return tcp;
  }

  GraphCatalog catalog_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<TcpServer> server_;
  std::thread serve_thread_;
  std::atomic<bool> serve_returned_{false};
};

// --- binary wire protocol ----------------------------------------------------

/// Minimal blocking binary-protocol client; mirrors LineClient but in
/// frames (service/wire.h). Send* enqueue nothing — each writes the
/// encoded frame straight to the socket, so pipelining is just calling
/// Send* repeatedly before the first Recv.
class WireClient {
 public:
  explicit WireClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const { return connected_; }

  bool SendFrame(wire::Opcode op, std::uint64_t request_id,
                 std::string payload = "") {
    wire::Frame frame;
    frame.opcode = op;
    frame.request_id = request_id;
    frame.payload = std::move(payload);
    std::string encoded;
    wire::EncodeFrame(frame, &encoded);
    return SendRaw(encoded);
  }

  bool SendQuery(std::uint64_t request_id, const std::string& line,
                 bool stream = false) {
    auto built = BuildQueryRequest(ParseRequestLine(line));
    FAIRBC_CHECK(built.ok());
    return SendFrame(wire::Opcode::kQuery, request_id,
                     wire::EncodeQueryPayload(built.value(), stream));
  }

  bool SendRaw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one complete frame; false on EOF/protocol error.
  bool RecvFrame(wire::Frame* frame) {
    for (;;) {
      std::size_t consumed = 0;
      const auto decoded =
          wire::DecodeFrame(rbuf_, /*max_payload=*/64u << 20, frame, &consumed);
      if (decoded.status == wire::FrameStatus::kOk) {
        rbuf_.erase(0, consumed);
        return true;
      }
      if (decoded.status == wire::FrameStatus::kBad) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      rbuf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed the connection (clean EOF).
  bool AtEof() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string rbuf_;
};

/// Acceptance criterion: ≥4 simultaneous client sessions with
/// interleaved load/query/drop — distinct session ids, every response
/// tagged, identical digests for identical parameters across sessions.
TEST(TcpServerTest, FourConcurrentSessionsInterleaved) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  const std::string snap = ::testing::TempDir() + "/tcp_extra.snap";
  ASSERT_TRUE(WriteSnapshot(ServerTestGraph(/*seed=*/31), snap).ok());

  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::string> session_ids(kClients);
  std::vector<std::vector<std::string>> digests(kClients);
  // Not vector<bool>: concurrent writers need distinct objects, and
  // vector<bool> packs its flags into shared words (a data race).
  std::array<std::atomic<bool>, kClients> failed{};
  std::barrier sync(kClients);

  auto run_client = [&](int idx) {
    LineClient client(fx.port());
    if (!client.connected()) {
      failed[idx] = true;
      return;
    }
    // All four sessions are provably simultaneous: each holds its
    // connection across the barrier below.
    std::string pong = client.Ask("ping");
    session_ids[idx] = JsonField(pong, "session");
    sync.arrive_and_wait();
    for (int round = 0; round < kRounds; ++round) {
      // Interleave per-session catalog churn (load/drop of a private
      // name) with queries against the shared graph.
      const std::string mine = "side" + std::to_string(idx);
      std::string loaded = client.Ask("load name=" + mine + " path=" + snap +
                                      (idx % 2 ? " format=mmap" : ""));
      if (JsonField(loaded, "ok") != "true") failed[idx] = true;
      const std::uint32_t alpha = 2 + (round % 2);
      std::string reply =
          client.Ask("query graph=g alpha=" + std::to_string(alpha) +
                     " beta=2 delta=1");
      if (JsonField(reply, "ok") != "true" ||
          JsonField(reply, "session") != session_ids[idx]) {
        failed[idx] = true;
      }
      digests[idx].push_back(JsonField(reply, "digest"));
      std::string dropped = client.Ask("drop name=" + mine);
      if (JsonField(dropped, "ok") != "true") failed[idx] = true;
    }
    sync.arrive_and_wait();
    client.Ask("quit");
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(run_client, i);
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_FALSE(failed[i].load()) << "client " << i;
    EXPECT_FALSE(session_ids[i].empty());
    ASSERT_EQ(digests[i].size(), static_cast<std::size_t>(kRounds));
    // Same parameter point ⇒ same digest, whichever session asked.
    EXPECT_EQ(digests[i][0], digests[0][0]);
    EXPECT_EQ(digests[i][1], digests[0][1]);
    for (int j = 0; j < i; ++j) {
      EXPECT_NE(session_ids[i], session_ids[j]) << "session ids must differ";
    }
  }
  EXPECT_GE(fx.server().sessions_started(), 4u);
}

TEST(TcpServerTest, MaxSessionsBoundTurnsExtraClientsAway) {
  ServerFixture fx(/*max_sessions=*/1);

  LineClient first(fx.port());
  ASSERT_TRUE(first.connected());
  // Round-trip before the second connect so admission has happened.
  ASSERT_EQ(JsonField(first.Ask("ping"), "ok"), "true");

  LineClient second(fx.port());
  ASSERT_TRUE(second.connected());
  const std::string rejected = second.RecvLine();
  EXPECT_EQ(JsonField(rejected, "ok"), "false") << rejected;
  EXPECT_NE(rejected.find("server full"), std::string::npos) << rejected;

  // After the first session quits, the slot frees up.
  first.Ask("quit");
  for (int attempt = 0;; ++attempt) {
    LineClient retry(fx.port());
    ASSERT_TRUE(retry.connected());
    std::string pong = retry.Ask("ping");
    if (JsonField(pong, "ok") == "true") {
      retry.Ask("quit");
      break;
    }
    ASSERT_LT(attempt, 200) << "slot never freed after quit";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(TcpServerTest, StopStopsAcceptingAndDrainsActiveSessions) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());

  LineClient survivor(fx.port());
  ASSERT_TRUE(survivor.connected());
  ASSERT_EQ(JsonField(survivor.Ask("ping"), "ok"), "true");

  {
    LineClient stopper(fx.port());
    ASSERT_TRUE(stopper.connected());
    std::string reply = stopper.Ask("stop");
    EXPECT_EQ(JsonField(reply, "ok"), "true");
    EXPECT_EQ(JsonField(reply, "cmd"), "stop");
  }

  // The surviving session keeps working while the server drains...
  std::string reply = survivor.Ask("query graph=g alpha=2 beta=2 delta=1");
  EXPECT_EQ(JsonField(reply, "ok"), "true") << reply;
  EXPECT_FALSE(fx.serve_returned()) << "drain must wait for live sessions";

  // ...and Serve() returns only after it ends.
  survivor.Ask("quit");
  for (int i = 0; i < 500 && !fx.serve_returned(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fx.serve_returned());

  // No new connections are admitted after stop: connect either fails or
  // is closed without a served response.
  LineClient late(fx.port());
  if (late.connected()) {
    EXPECT_EQ(late.Ask("ping"), "");
  }
}

/// Concurrent identical queries across *sessions* coalesce: the cache
/// command must report the single-flight counters.
TEST(TcpServerTest, CacheCommandReportsCoalescedCounter) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());

  constexpr int kClients = 4;
  std::barrier sync(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      LineClient client(fx.port());
      if (!client.connected()) return;
      sync.arrive_and_wait();
      std::string reply = client.Ask("query graph=g alpha=2 beta=2 delta=1");
      if (JsonField(reply, "ok") == "true") ok_count.fetch_add(1);
      client.Ask("quit");
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(ok_count.load(), kClients);

  // One execution total; everyone else coalesced or hit the cache.
  EXPECT_EQ(fx.executor().execution_count(), 1u);
  LineClient client(fx.port());
  ASSERT_TRUE(client.connected());
  std::string cache = client.Ask("cache");
  EXPECT_EQ(JsonField(cache, "ok"), "true");
  EXPECT_EQ(JsonField(cache, "executions"), "1") << cache;
  const std::string coalesced = JsonField(cache, "coalesced");
  ASSERT_FALSE(coalesced.empty());
  EXPECT_EQ(std::stoul(coalesced) + std::stoul(JsonField(cache, "hits")),
            static_cast<unsigned long>(kClients - 1))
      << cache;
  client.Ask("quit");
}

/// Holds the execution of every query with alpha == 3 until Release():
/// a sweep over alphas=2,3 then has one point in flight on demand.
class AlphaThreeGate {
 public:
  explicit AlphaThreeGate(QueryExecutor& executor) : executor_(executor) {
    executor_.SetExecuteHook([this](const QueryRequest& req) {
      if (req.params.alpha != 3) return;
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return released_; });
    });
  }
  ~AlphaThreeGate() {
    Release();
    executor_.SetExecuteHook(nullptr);
  }

  void WaitEntered() {
    while (entered_.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  QueryExecutor& executor_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<int> entered_{0};
};

/// The per-point query objects of a sweep reply, in grid order.
std::vector<std::string> SweepPoints(const std::string& reply) {
  std::vector<std::string> points;
  const std::string marker = "{\"ok\":true,\"cmd\":\"query\"";
  for (std::size_t at = reply.find(marker); at != std::string::npos;) {
    const std::size_t next = reply.find(marker, at + 1);
    points.push_back(reply.substr(at, next - at));
    at = next;
  }
  return points;
}

/// A sweep is admitted like a query: while one of its points runs, the
/// reactor that owns its connection keeps serving every other connection
/// (one reactor thread, so a parked reactor would leave the ping
/// unanswered), and the sweep's answer equals separate queries.
TEST(TcpServerTest, SweepDoesNotStallItsReactor) {
  TcpServerOptions tcp;
  tcp.reactor_threads = 1;
  ServerFixture fx(tcp);
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  auto gate = std::make_unique<AlphaThreeGate>(fx.executor());

  LineClient sweeper(fx.port());
  ASSERT_TRUE(sweeper.connected());
  ASSERT_TRUE(sweeper.Send("sweep graph=g alphas=2,3 betas=2 deltas=1"));
  gate->WaitEntered();

  LineClient other(fx.port());
  ASSERT_TRUE(other.connected());
  other.SetRecvTimeout(5000);
  const std::string pong = other.Ask("ping");
  gate->Release();
  EXPECT_EQ(JsonField(pong, "ok"), "true")
      << "ping unanswered while a sweep point was held";

  const std::string sweep = sweeper.RecvLine();
  EXPECT_EQ(JsonField(sweep, "ok"), "true") << sweep;
  EXPECT_EQ(JsonField(sweep, "queries"), "2") << sweep;
  const std::vector<std::string> points = SweepPoints(sweep);
  ASSERT_EQ(points.size(), 2u) << sweep;
  LineClient oracle(fx.port());
  ASSERT_TRUE(oracle.connected());
  for (int i = 0; i < 2; ++i) {
    const std::string alpha = std::to_string(2 + i);
    const std::string single =
        oracle.Ask("query graph=g alpha=" + alpha + " beta=2 delta=1 cache=0");
    ASSERT_EQ(JsonField(single, "ok"), "true") << single;
    EXPECT_EQ(JsonField(points[i], "alpha"), alpha) << points[i];
    EXPECT_EQ(JsonField(points[i], "count"), JsonField(single, "count"));
    EXPECT_EQ(JsonField(points[i], "digest"), JsonField(single, "digest"));
  }
  gate.reset();
  sweeper.Ask("quit");
  other.Ask("quit");
  oracle.Ask("quit");
}

/// A held sweep holds one max-inflight ticket: with max_inflight = 1 a
/// query is turned away busy while pings still answer, and a `stop` from
/// another connection drains the sweep — Serve() returns only after the
/// sweep's client has read its whole answer and gone.
TEST(TcpServerTest, HeldSweepDrawsBusyAndDrainsBeforeServeReturns) {
  TcpServerOptions tcp;
  tcp.max_inflight = 1;
  ServerFixture fx(tcp);
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  AlphaThreeGate gate(fx.executor());

  LineClient sweeper(fx.port());
  ASSERT_TRUE(sweeper.connected());
  ASSERT_TRUE(sweeper.Send("sweep graph=g alphas=2,3 betas=2 deltas=1"));
  gate.WaitEntered();

  LineClient line(fx.port());
  ASSERT_TRUE(line.connected());
  line.SetRecvTimeout(5000);
  const std::string busy = line.Ask("query graph=g alpha=4 beta=2 delta=1");
  EXPECT_EQ(JsonField(busy, "ok"), "false") << busy;
  EXPECT_EQ(JsonField(busy, "code"), "busy") << busy;
  EXPECT_EQ(JsonField(line.Ask("ping"), "ok"), "true");

  {
    LineClient stopper(fx.port());
    ASSERT_TRUE(stopper.connected());
    stopper.SetRecvTimeout(5000);
    EXPECT_EQ(JsonField(stopper.Ask("stop"), "cmd"), "stop");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fx.serve_returned()) << "drain must wait for the held sweep";

  gate.Release();
  const std::string sweep = sweeper.RecvLine();
  EXPECT_EQ(JsonField(sweep, "ok"), "true") << sweep;
  EXPECT_EQ(SweepPoints(sweep).size(), 2u) << sweep;
  EXPECT_FALSE(fx.serve_returned()) << "drain must wait for live sessions";
  sweeper.Ask("quit");
  line.Ask("quit");
  for (int i = 0; i < 500 && !fx.serve_returned(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fx.serve_returned());
}

// --- binary protocol over the shared port -----------------------------------

TEST(WireServerTest, PingPongEchoesRequestId) {
  ServerFixture fx;
  WireClient client(fx.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendFrame(wire::Opcode::kPing, 0xABCDEF01u));
  wire::Frame pong;
  ASSERT_TRUE(client.RecvFrame(&pong));
  EXPECT_EQ(pong.opcode, wire::Opcode::kPong);
  EXPECT_EQ(pong.request_id, 0xABCDEF01u);
  EXPECT_TRUE(pong.payload.empty());
}

/// The two protocols must agree byte-for-byte on query results: a binary
/// kQuery and the equivalent line-protocol query produce the same digest
/// (the smoke script's oracle property, provable in-process).
TEST(WireServerTest, BinaryQueryMatchesLineProtocolOracle) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  const std::string query = "query graph=g alpha=2 beta=2 delta=1";

  LineClient oracle(fx.port());
  ASSERT_TRUE(oracle.connected());
  const std::string line_reply = oracle.Ask(query);
  ASSERT_EQ(JsonField(line_reply, "ok"), "true") << line_reply;

  WireClient client(fx.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendQuery(7, query));
  wire::Frame reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.opcode, wire::Opcode::kReply);
  EXPECT_EQ(reply.request_id, 7u);
  EXPECT_EQ(JsonField(reply.payload, "ok"), "true") << reply.payload;
  EXPECT_EQ(JsonField(reply.payload, "digest"), JsonField(line_reply, "digest"));
  EXPECT_EQ(JsonField(reply.payload, "count"), JsonField(line_reply, "count"));
  oracle.Ask("quit");
}

/// kCommand carries the line grammar verbatim, so binary clients reach
/// every command (load/cache/graphs/...) without a second code path.
TEST(WireServerTest, CommandFramesSpeakTheLineGrammar) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  WireClient client(fx.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendFrame(wire::Opcode::kCommand, 1, "catalog"));
  wire::Frame reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.opcode, wire::Opcode::kReply);
  EXPECT_EQ(JsonField(reply.payload, "ok"), "true") << reply.payload;
  EXPECT_NE(reply.payload.find("\"g\""), std::string::npos) << reply.payload;

  // A malformed query via kCommand gets the server-side validation
  // error, typed as a kError/bad_request frame on the binary protocol.
  ASSERT_TRUE(
      client.SendFrame(wire::Opcode::kCommand, 2, "query graph=g alpha=-1"));
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.opcode, wire::Opcode::kError);
  EXPECT_EQ(reply.request_id, 2u);
  wire::ErrorCode code;
  std::string message;
  ASSERT_TRUE(wire::DecodeErrorPayload(reply.payload, &code, &message).ok());
  EXPECT_EQ(code, wire::ErrorCode::kBadRequest);
  EXPECT_NE(message.find("alpha"), std::string::npos) << message;
}

/// Line and binary clients interleave on one server; both see tagged
/// sessions, and identical queries agree across protocols.
TEST(WireServerTest, MixedLineAndBinaryClientsConcurrently) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  const std::string query = "query graph=g alpha=2 beta=3 delta=1";

  constexpr int kEach = 3;
  std::barrier sync(2 * kEach);
  std::array<std::atomic<bool>, 2 * kEach> failed{};
  std::vector<std::string> digests(2 * kEach);
  std::vector<std::thread> threads;
  for (int i = 0; i < kEach; ++i) {
    threads.emplace_back([&, i] {
      LineClient client(fx.port());
      if (!client.connected()) {
        failed[i] = true;
        return;
      }
      sync.arrive_and_wait();
      const std::string reply = client.Ask(query);
      if (JsonField(reply, "ok") != "true") failed[i] = true;
      digests[i] = JsonField(reply, "digest");
      client.Ask("quit");
    });
    threads.emplace_back([&, i] {
      const int slot = kEach + i;
      WireClient client(fx.port());
      if (!client.connected()) {
        failed[slot] = true;
        return;
      }
      sync.arrive_and_wait();
      wire::Frame reply;
      if (!client.SendQuery(1, query) || !client.RecvFrame(&reply) ||
          reply.opcode != wire::Opcode::kReply ||
          JsonField(reply.payload, "ok") != "true") {
        failed[slot] = true;
        return;
      }
      digests[slot] = JsonField(reply.payload, "digest");
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 2 * kEach; ++i) {
    EXPECT_FALSE(failed[i].load()) << "client " << i;
    EXPECT_EQ(digests[i], digests[0]) << "client " << i;
  }
  EXPECT_FALSE(digests[0].empty());
  // All six asked the same parameter point: exactly one run of the engine.
  EXPECT_EQ(fx.executor().execution_count(), 1u);
}

/// A pipelined duplicate-heavy burst: responses come back in request
/// order with matching ids, and the executor runs each distinct
/// parameter point exactly once (acceptance criterion: executions ==
/// unique keys under pipelining).
TEST(WireServerTest, PipelinedBurstKeepsOrderAndCoalescesDuplicates) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());

  WireClient client(fx.port());
  ASSERT_TRUE(client.connected());

  // 12 requests, 3 distinct parameter points, interleaved — plus pings
  // mixed in to prove ordering holds across opcodes.
  constexpr int kRequests = 12;
  constexpr unsigned kUnique = 3;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
    if (i % 4 == 3) {
      ASSERT_TRUE(client.SendFrame(wire::Opcode::kPing, id));
    } else {
      const unsigned alpha = 2 + (static_cast<unsigned>(i) % kUnique);
      ASSERT_TRUE(client.SendQuery(
          id, "query graph=g alpha=" + std::to_string(alpha) +
                  " beta=2 delta=1"));
    }
  }
  for (int i = 0; i < kRequests; ++i) {
    wire::Frame reply;
    ASSERT_TRUE(client.RecvFrame(&reply)) << "response " << i;
    EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(i) + 1)
        << "responses must arrive in request order";
    if (i % 4 == 3) {
      EXPECT_EQ(reply.opcode, wire::Opcode::kPong);
    } else {
      ASSERT_EQ(reply.opcode, wire::Opcode::kReply);
      EXPECT_EQ(JsonField(reply.payload, "ok"), "true") << reply.payload;
    }
  }
  EXPECT_EQ(fx.executor().execution_count(), kUnique);
}

/// Reads one binary stream: its kReplyChunk payloads, then the kReplyEnd
/// JSON. False on a transport error or an unexpected frame.
bool RecvStream(WireClient& client, std::uint64_t id,
                std::vector<std::string>* chunks, std::string* end) {
  for (;;) {
    wire::Frame frame;
    if (!client.RecvFrame(&frame) || frame.request_id != id) return false;
    if (frame.opcode == wire::Opcode::kReplyEnd) {
      *end = std::move(frame.payload);
      return true;
    }
    if (frame.opcode != wire::Opcode::kReplyChunk) return false;
    chunks->push_back(std::move(frame.payload));
  }
}

/// A stream served live and the same stream replayed from the payload
/// cache go out as the same frames: equal count, seq and results_so_far,
/// byte-identical chunk bodies. Both reassemble to the batch digest, the
/// line protocol's stream=1 replay carries the same bicliques, and a
/// request pipelined behind a stream is answered after its kReplyEnd.
TEST(WireServerTest, LiveAndReplayedStreamsCarryIdenticalChunkBodies) {
  ServerFixture fx;
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());
  const std::string query = "query graph=g alpha=2 beta=2 delta=1";

  WireClient client(fx.port());
  ASSERT_TRUE(client.connected());
  std::vector<std::string> live, replay;
  std::string live_end, replay_end;
  ASSERT_TRUE(client.SendQuery(1, query, /*stream=*/true));
  ASSERT_TRUE(RecvStream(client, 1, &live, &live_end));
  EXPECT_EQ(JsonField(live_end, "cache_hit"), "false") << live_end;

  // The replay, with a ping pipelined right behind it.
  ASSERT_TRUE(client.SendQuery(2, query, /*stream=*/true));
  ASSERT_TRUE(client.SendFrame(wire::Opcode::kPing, 3));
  ASSERT_TRUE(RecvStream(client, 2, &replay, &replay_end));
  EXPECT_EQ(JsonField(replay_end, "cache_hit"), "true") << replay_end;
  wire::Frame pong;
  ASSERT_TRUE(client.RecvFrame(&pong));
  EXPECT_EQ(pong.opcode, wire::Opcode::kPong);
  EXPECT_EQ(pong.request_id, 3u);
  EXPECT_EQ(fx.executor().execution_count(), 1u);

  ASSERT_GE(live.size(), 2u) << "the query must span several chunks";
  ASSERT_EQ(replay.size(), live.size());
  DigestAccumulator digest;
  std::vector<std::vector<Biclique>> chunk_sets;
  for (std::size_t i = 0; i < live.size(); ++i) {
    auto a = wire::DecodeChunkPayload(live[i]);
    auto b = wire::DecodeChunkPayload(replay[i]);
    ASSERT_TRUE(a.ok() && b.ok()) << i;
    EXPECT_EQ(a.value().seq, i + 1);
    EXPECT_EQ(b.value().seq, i + 1);
    EXPECT_EQ(a.value().results_so_far, b.value().results_so_far) << i;
    EXPECT_EQ(b.value().nodes_so_far, 0u) << "a replay runs nothing";
    EXPECT_EQ(live[i].substr(wire::kChunkHeaderBytes),
              replay[i].substr(wire::kChunkHeaderBytes))
        << "chunk " << i << " body differs between live and replay";
    for (const Biclique& bc : a.value().bicliques) digest.Add(bc);
    chunk_sets.push_back(std::move(a.value().bicliques));
  }
  QuerySummary reassembled;
  digest.FillSummary(&reassembled);

  ASSERT_TRUE(client.SendQuery(4, query));
  wire::Frame batch;
  ASSERT_TRUE(client.RecvFrame(&batch));
  ASSERT_EQ(batch.opcode, wire::Opcode::kReply);
  EXPECT_EQ(JsonHex64(reassembled.digest), JsonField(batch.payload, "digest"));
  EXPECT_EQ(std::to_string(reassembled.count),
            JsonField(batch.payload, "count"));
  EXPECT_EQ(JsonField(live_end, "digest"), JsonField(batch.payload, "digest"));

  // The line protocol decodes the same bodies into its JSON chunk lines.
  LineClient line(fx.port());
  ASSERT_TRUE(line.connected());
  ASSERT_TRUE(line.Send(query + " stream=1"));
  for (std::size_t i = 0; i < chunk_sets.size(); ++i) {
    const std::string chunk_line = line.RecvLine();
    ASSERT_NE(chunk_line.find("\"cmd\":\"chunk\""), std::string::npos)
        << chunk_line;
    const std::string marker = "\"bicliques\":";
    const std::size_t at = chunk_line.find(marker);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(chunk_line.substr(at + marker.size(),
                                chunk_line.size() - at - marker.size() - 1),
              BicliquesJson(chunk_sets[i]))
        << "chunk " << i;
  }
  const std::string end_line = line.RecvLine();
  EXPECT_EQ(JsonField(end_line, "cache_hit"), "true") << end_line;
  EXPECT_EQ(JsonField(end_line, "digest"), JsonField(batch.payload, "digest"));
  line.Ask("quit");
}

/// Admission control: with --max-inflight=1 and the only slot held by a
/// deliberately-blocked leader, further queries get the typed busy error
/// on BOTH protocols — and the server stays fully responsive (pings).
TEST(WireServerTest, OverloadedServerSaysBusyOnBothProtocols) {
  TcpServerOptions tcp;
  tcp.max_inflight = 1;
  ServerFixture fx(tcp);
  ASSERT_TRUE(fx.catalog().AddGraph("g", ServerTestGraph()).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  fx.executor().SetExecuteHook([&](const QueryRequest& req) {
    if (req.params.alpha != 7) return;  // only the blocker query stalls.
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  WireClient blocker(fx.port());
  ASSERT_TRUE(blocker.connected());
  ASSERT_TRUE(blocker.SendQuery(1, "query graph=g alpha=7 beta=2 delta=1"));
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Line protocol: typed JSON error, connection stays usable.
  LineClient line(fx.port());
  ASSERT_TRUE(line.connected());
  const std::string busy = line.Ask("query graph=g alpha=3 beta=2 delta=1");
  EXPECT_EQ(JsonField(busy, "ok"), "false") << busy;
  EXPECT_EQ(JsonField(busy, "code"), "busy") << busy;
  EXPECT_EQ(JsonField(line.Ask("ping"), "ok"), "true");

  // Binary protocol: kError frame with ErrorCode::kBusy.
  WireClient binary(fx.port());
  ASSERT_TRUE(binary.connected());
  ASSERT_TRUE(binary.SendQuery(5, "query graph=g alpha=4 beta=2 delta=1"));
  wire::Frame err;
  ASSERT_TRUE(binary.RecvFrame(&err));
  ASSERT_EQ(err.opcode, wire::Opcode::kError);
  EXPECT_EQ(err.request_id, 5u);
  wire::ErrorCode code;
  std::string message;
  ASSERT_TRUE(wire::DecodeErrorPayload(err.payload, &code, &message).ok());
  EXPECT_EQ(code, wire::ErrorCode::kBusy);
  EXPECT_NE(message.find("max-inflight"), std::string::npos) << message;

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  wire::Frame reply;
  ASSERT_TRUE(blocker.RecvFrame(&reply));
  EXPECT_EQ(reply.opcode, wire::Opcode::kReply);
  EXPECT_EQ(JsonField(reply.payload, "ok"), "true") << reply.payload;
  fx.executor().SetExecuteHook(nullptr);
  line.Ask("quit");
}

/// Requests beyond --max-request-bytes get the typed too_large error:
/// a complete huge line, an unterminated line that outgrows the cap, and
/// a binary frame whose length prefix alone announces the excess.
TEST(WireServerTest, OversizedRequestsRejectedWithTypedError) {
  TcpServerOptions tcp;
  tcp.max_request_bytes = 1024;
  ServerFixture fx(tcp);

  {  // Complete-but-huge line (newline arrives with the payload).
    LineClient client(fx.port());
    ASSERT_TRUE(client.connected());
    const std::string reply =
        client.Ask("ping " + std::string(4096, 'x'));
    EXPECT_EQ(JsonField(reply, "ok"), "false") << reply;
    EXPECT_EQ(JsonField(reply, "code"), "too_large") << reply;
    EXPECT_EQ(client.RecvLine(), "") << "connection must close after";
  }
  {  // Unterminated line that outgrows the cap mid-stream: a hostile
    // newline-free sender must be cut off, not buffered without bound.
    LineClient client(fx.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string(4096, 'y')));  // no '\n'
    const std::string reply = client.RecvLine();
    EXPECT_EQ(JsonField(reply, "code"), "too_large") << reply;
    EXPECT_EQ(client.RecvLine(), "");
  }
  {  // Binary: payload length in the header exceeds the cap; rejected
    // without buffering the (never-sent) payload.
    WireClient client(fx.port());
    ASSERT_TRUE(client.connected());
    std::string header;
    wire::AppendU16(&header, wire::kMagic);
    wire::AppendU8(&header, wire::kVersion);
    wire::AppendU8(&header, static_cast<std::uint8_t>(wire::Opcode::kCommand));
    wire::AppendU64(&header, 9);
    wire::AppendU32(&header, 1u << 20);  // 1 MiB announced, cap is 1 KiB.
    ASSERT_TRUE(client.SendRaw(header));
    wire::Frame err;
    ASSERT_TRUE(client.RecvFrame(&err));
    ASSERT_EQ(err.opcode, wire::Opcode::kError);
    wire::ErrorCode code;
    std::string message;
    ASSERT_TRUE(wire::DecodeErrorPayload(err.payload, &code, &message).ok());
    EXPECT_EQ(code, wire::ErrorCode::kTooLarge);
    EXPECT_TRUE(client.AtEof()) << "corrupt-length stream must close";
  }
}

/// Corrupt binary framing (bad magic after negotiation, unknown opcode,
/// response opcode sent at the server) earns one kError then a close.
TEST(WireServerTest, CorruptFramesGetOneErrorThenClose) {
  ServerFixture fx;
  {  // Unknown opcode.
    WireClient client(fx.port());
    ASSERT_TRUE(client.connected());
    std::string header;
    wire::AppendU16(&header, wire::kMagic);
    wire::AppendU8(&header, wire::kVersion);
    wire::AppendU8(&header, 0x55);
    wire::AppendU64(&header, 1);
    wire::AppendU32(&header, 0);
    ASSERT_TRUE(client.SendRaw(header));
    wire::Frame err;
    ASSERT_TRUE(client.RecvFrame(&err));
    EXPECT_EQ(err.opcode, wire::Opcode::kError);
    EXPECT_TRUE(client.AtEof());
  }
  {  // Unsupported version.
    WireClient client(fx.port());
    ASSERT_TRUE(client.connected());
    std::string header;
    wire::AppendU16(&header, wire::kMagic);
    wire::AppendU8(&header, 99);
    wire::AppendU8(&header, static_cast<std::uint8_t>(wire::Opcode::kPing));
    wire::AppendU64(&header, 1);
    wire::AppendU32(&header, 0);
    ASSERT_TRUE(client.SendRaw(header));
    wire::Frame err;
    ASSERT_TRUE(client.RecvFrame(&err));
    ASSERT_EQ(err.opcode, wire::Opcode::kError);
    wire::ErrorCode code;
    std::string message;
    ASSERT_TRUE(wire::DecodeErrorPayload(err.payload, &code, &message).ok());
    EXPECT_EQ(code, wire::ErrorCode::kUnsupportedVersion);
    EXPECT_TRUE(client.AtEof());
  }
  {  // A response opcode aimed at the server.
    WireClient client(fx.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendFrame(wire::Opcode::kPong, 1));
    wire::Frame err;
    ASSERT_TRUE(client.RecvFrame(&err));
    EXPECT_EQ(err.opcode, wire::Opcode::kError);
    EXPECT_TRUE(client.AtEof());
  }
}

/// --client-deadline-ms reaps idle connections; a fresh connection keeps
/// working afterwards.
TEST(WireServerTest, IdleConnectionsReapedAfterDeadline) {
  TcpServerOptions tcp;
  tcp.client_deadline_ms = 100;
  ServerFixture fx(tcp);

  LineClient idle(fx.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_EQ(JsonField(idle.Ask("ping"), "ok"), "true");
  // No traffic for well past the deadline: the server must close it.
  EXPECT_EQ(idle.RecvLine(), "") << "idle connection should be reaped";

  LineClient fresh(fx.port());
  ASSERT_TRUE(fresh.connected());
  EXPECT_EQ(JsonField(fresh.Ask("ping"), "ok"), "true");
  fresh.Ask("quit");
}

}  // namespace
}  // namespace fairbc
