#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/response_json.h"
#include "service/wire.h"

namespace fairbc {

namespace {

std::string Arg(const RequestLine& req, const std::string& key,
                const std::string& default_value) {
  auto it = req.args.find(key);
  return it == req.args.end() ? default_value : it->second;
}

/// The number `key` holds (absent → `default_value`), read with the one
/// text-door grammar (ParseNumber). Negative values parse, so callers
/// range-check the real value before any unsigned cast.
template <typename T>
Result<T> NumberArg(const RequestLine& req, const std::string& key,
                    T default_value) {
  auto it = req.args.find(key);
  if (it == req.args.end()) return default_value;
  const std::optional<T> value = ParseNumber<T>(it->second);
  if (!value) return UnparsableValue(key, it->second);
  return *value;
}

/// Strict-args check: any key outside `known` is an error, so a typo
/// like `trace m=8` or `query alpah=5` cannot act as if it were absent.
Status CheckKnownArgs(const RequestLine& req,
                      const std::vector<std::string_view>& known) {
  for (const auto& [key, value] : req.args) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument(req.command + " does not take \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

}  // namespace

RequestLine ParseRequestLine(const std::string& line) {
  RequestLine req;
  std::istringstream tokens(line);
  tokens >> req.command;
  std::string token;
  while (tokens >> token) {
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      req.args[token] = "1";  // bare key = boolean true, like the CLI.
    } else {
      req.args[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return req;
}

Result<QueryRequest> BuildQueryRequest(const RequestLine& req, bool* stream) {
  const std::string graph = Arg(req, "graph", "");
  if (graph.empty()) return Status::InvalidArgument("query needs graph=NAME");
  // The line's own keys, then every field the request reader asks for.
  std::vector<std::string_view> known = {"graph", "cache", "rid", "stream"};
  auto read = ReadQueryText(
      {[&](std::string_view field) -> std::optional<std::string> {
         known.push_back(field);
         auto it = req.args.find(std::string(field));
         if (it == req.args.end()) return std::nullopt;
         return it->second;
       },
       [](std::string_view field) { return std::string(field); }});
  if (!read.ok()) return read.status();
  Status st = CheckKnownArgs(req, known);
  if (!st.ok()) return st;
  QueryRequest query = std::move(read).value();
  query.graph = graph;
  auto use_cache = NumberArg<std::int64_t>(req, "cache", 1);
  if (!use_cache.ok()) return use_cache.status();
  query.use_cache = use_cache.value() != 0;
  auto streamed = NumberArg<std::int64_t>(req, "stream", 0);
  if (!streamed.ok()) return streamed.status();
  if (stream != nullptr) *stream = streamed.value() != 0;
  query.request_id = Arg(req, "rid", "");
  if (!ValidRequestId(query.request_id)) {
    return Status::InvalidArgument(
        "rid must be at most 128 bytes of printable ASCII with no space, "
        "quote or backslash");
  }
  return query;
}

std::string TagSessionJson(std::uint64_t id, std::string json) {
  if (json.empty() || json.front() != '{') return json;
  return "{\"session\":" + std::to_string(id) + "," + json.substr(1);
}

ServerSession::ServerSession(GraphCatalog& catalog, QueryExecutor& executor,
                             std::uint64_t id)
    : catalog_(catalog), executor_(executor), id_(id) {}

std::string ServerSession::Tag(std::string json) const {
  return TagSessionJson(id_, std::move(json));
}

bool ServerSession::Handle(const std::string& line,
                           std::shared_ptr<Reply> reply, bool* stop_server) {
  const RequestLine req = ParseRequestLine(line);
  const std::string& command = req.command;
  if (command == "query") {
    bool stream = false;
    auto built = BuildQueryRequest(req, &stream);
    if (built.ok()) {
      Query(std::move(built).value(), stream, std::move(reply));
    } else {
      reply->BadRequest(built.status());
    }
  } else if (command == "sweep") {
    Sweep(req, std::move(reply));
  } else if (command.empty() || command[0] == '#') {
    reply->Done("");
  } else {
    if (command == "stop") *stop_server = true;
    reply->Done(Tag(Dispatch(req)));
  }
  return command != "quit" && command != "stop";
}

std::string ServerSession::Dispatch(const RequestLine& req) {
  if (req.command == "ping" || req.command == "quit" ||
      req.command == "stop") {
    return "{\"ok\":true,\"cmd\":\"" + req.command + "\"}";
  }
  if (req.command == "load") return Load(req);
  if (req.command == "gen") return Gen(req);
  if (req.command == "save") return Save(req);
  if (req.command == "drop") return Drop(req);
  if (req.command == "catalog") return Catalog();
  if (req.command == "cache") return Cache(req);
  if (req.command == "metrics") return Metrics();
  if (req.command == "trace") return Trace(req);
  return ErrorJson("unknown command: " + req.command);
}

std::string ServerSession::Metrics() {
  // The whole exposition rides in one JSON string field: JsonEscape
  // turns the newlines into \n, so the response stays a single line in
  // both protocols. Scrapers unescape (tools/fairbc_metrics_scrape.cc)
  // or use the plain-text --metrics-port listener instead.
  return "{\"ok\":true,\"cmd\":\"metrics\",\"text\":\"" +
         JsonEscape(executor_.metrics()->PrometheusText()) + "\"}";
}

std::string ServerSession::Cache(const RequestLine& req) {
  // `cache` takes no arguments; garbage like `cache n=5` is a typed
  // bad_argument error rather than a silently ignored key.
  Status known = CheckKnownArgs(req, {});
  if (!known.ok()) return TypedErrorJson("bad_argument", known.message());
  return ExecutorTelemetryJson(executor_.telemetry());
}

std::string ServerSession::Trace(const RequestLine& req) {
  // Strict argument validation: `trace n=-1`, `trace n=x` and unknown
  // keys all come back as typed bad_argument errors, matching the query
  // parameter hardening.
  Status known = CheckKnownArgs(req, {"n"});
  if (!known.ok()) return TypedErrorJson("bad_argument", known.message());
  auto n = NumberArg<std::int64_t>(req, "n", 4);
  if (!n.ok()) return TypedErrorJson("bad_argument", n.status().message());
  if (n.value() < 1 || n.value() > 1024) {
    return TypedErrorJson("bad_argument", "n must be in [1, 1024]");
  }
  const auto traces =
      executor_.traces().Snapshot(static_cast<std::size_t>(n.value()));
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"trace\",\"tracing\":"
     << (executor_.tracing_enabled() ? "true" : "false")
     << ",\"slow_query_ms\":" << JsonDouble(executor_.slow_query_ms())
     << ",\"retained\":" << executor_.traces().pushed() << ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    os << (i > 0 ? "," : "") << TraceEventsJson(*traces[i]);
  }
  os << "]}";
  return os.str();
}

std::string ServerSession::Load(const RequestLine& req) {
  Status known = CheckKnownArgs(req, {"name", "path", "format"});
  if (!known.ok()) return ErrorJson(known);
  const std::string name = Arg(req, "name", "");
  const std::string path = Arg(req, "path", "");
  if (name.empty() || path.empty()) {
    return ErrorJson("load needs name=NAME path=FILE");
  }
  auto format = ParseCatalogFormat(Arg(req, "format", "snapshot"));
  if (!format) return ErrorJson("bad format (snapshot|mmap|attr|edges)");
  Status st = catalog_.AddFromFile(name, path, *format);
  if (!st.ok()) return ErrorJson(st);
  return EntryReply("load", name);
}

std::string ServerSession::Gen(const RequestLine& req) {
  Status known = CheckKnownArgs(req, {"name", "kind", "nu", "nv", "edges",
                                      "attrs", "communities", "gamma", "seed"});
  if (!known.ok()) return ErrorJson(known);
  const std::string name = Arg(req, "name", "");
  if (name.empty()) return ErrorJson("gen needs name=NAME");
  GraphSpec spec;
  spec.kind = Arg(req, "kind", spec.kind);
  for (auto [key, field] :
       {std::pair<const char*, std::int64_t*>{"nu", &spec.num_upper},
        {"nv", &spec.num_lower},
        {"edges", &spec.num_edges},
        {"attrs", &spec.num_attrs},
        {"communities", &spec.num_communities}}) {
    auto parsed = NumberArg(req, key, *field);
    if (!parsed.ok()) return ErrorJson(parsed.status());
    *field = parsed.value();
  }
  auto gamma = NumberArg(req, "gamma", spec.gamma);
  if (!gamma.ok()) return ErrorJson(gamma.status());
  spec.gamma = gamma.value();
  auto seed = NumberArg<std::int64_t>(req, "seed", 42);
  if (!seed.ok()) return ErrorJson(seed.status());
  spec.seed = static_cast<std::uint64_t>(seed.value());
  Result<BipartiteGraph> generated = GenerateGraph(spec);
  if (!generated.ok()) return ErrorJson(generated.status().message());
  Status st = catalog_.AddGraph(name, std::move(generated).value(),
                                "<gen:" + spec.kind + ">");
  if (!st.ok()) return ErrorJson(st);
  return EntryReply("gen", name);
}

std::string ServerSession::Save(const RequestLine& req) {
  Status known = CheckKnownArgs(req, {"name", "path", "compress", "block"});
  if (!known.ok()) return ErrorJson(known);
  const std::string name = Arg(req, "name", "");
  const std::string path = Arg(req, "path", "");
  if (name.empty() || path.empty()) {
    return ErrorJson("save needs name=NAME path=FILE");
  }
  auto entry = catalog_.Get(name);
  if (entry == nullptr) return ErrorJson("unknown graph: " + name);
  auto compress = NumberArg<std::int64_t>(req, "compress", 0);
  if (!compress.ok()) return ErrorJson(compress.status());
  auto block =
      NumberArg<std::int64_t>(req, "block", kDefaultSnapshotBlockEdges);
  if (!block.ok()) return ErrorJson(block.status());
  if (!ValidSnapshotBlockEdges(block.value())) {
    return ErrorJson("block must be in [1, " +
                     std::to_string(kMaxSnapshotBlockEdges) + "]");
  }
  SnapshotWriteOptions options;
  options.version = compress.value() != 0 ? kSnapshotVersionCompressed
                                          : kSnapshotVersion;
  options.block_edges = static_cast<std::uint32_t>(block.value());
  Status st = WriteSnapshot(entry->graph, path, options);
  if (!st.ok()) return ErrorJson(st);
  Result<SnapshotInfo> info = ProbeSnapshot(path);
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"save\",\"name\":\"" << JsonEscape(name)
     << "\",\"path\":\"" << JsonEscape(path) << "\",\"version\":\""
     << JsonHex64(entry->version) << "\",\"snapshot_version\":"
     << options.version;
  if (info.ok()) {
    os << ",\"file_bytes\":" << info.value().file_bytes
       << ",\"uncompressed_bytes\":" << info.value().uncompressed_bytes;
  }
  os << "}";
  return os.str();
}

std::string ServerSession::Drop(const RequestLine& req) {
  Status known = CheckKnownArgs(req, {"name"});
  if (!known.ok()) return ErrorJson(known);
  const std::string name = Arg(req, "name", "");
  if (name.empty()) return ErrorJson("drop needs name=NAME");
  if (!catalog_.Remove(name)) return ErrorJson("unknown graph: " + name);
  return "{\"ok\":true,\"cmd\":\"drop\",\"name\":\"" + JsonEscape(name) +
         "\"}";
}

std::string ServerSession::Catalog() {
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"catalog\",\"graphs\":[";
  bool first = true;
  for (const auto& entry : catalog_.List()) {
    if (!first) os << ",";
    first = false;
    os << CatalogEntryJson(*entry);
  }
  os << "]}";
  return os.str();
}

void ServerSession::Query(QueryRequest query, bool stream,
                          std::shared_ptr<Reply> reply) {
  if (!reply->Admit(stream)) return;
  // The completion holds the reply and the session id, not the session:
  // a connection may close while its query runs.
  auto done = [id = id_, query, reply](QueryResult result) {
    std::string body;
    {
      // Retained traces get the response-serialization cost as a
      // post-hoc span (a tail sibling of the root "query" span).
      TraceSpan serialize_span(result.trace.get(), "serialize");
      body = TagSessionJson(id, QueryResultJson(query, result));
    }
    reply->Done(std::move(body));
  };
  if (!stream) {
    executor_.ExecuteAsync(query, std::move(done));
    return;
  }
  executor_.ExecuteStreaming(
      query,
      [query, reply](const StreamChunk& chunk) {
        // The reply line / kReplyEnd frame is the wire's end marker.
        if (!chunk.final) reply->Chunk(query, chunk);
      },
      std::move(done));
}

// `sweep` expands a parameter grid (comma lists) into one batch and
// admits it onto the executor's pool, whose --threads workers run the
// grid's queries side by side; each query keeps its own `threads=` lane
// count, and its helper lanes queue on the same workers. Response: one
// JSON object with the per-query results, positionally aligned with the
// grid in alphas-outer / betas / deltas-inner order.
void ServerSession::Sweep(const RequestLine& req,
                          std::shared_ptr<Reply> reply) {
  // Every grid point is read as a query line whose alpha/beta/delta come
  // from the lists, so `sweep alphas=-1` is refused like `alpha=-1`. A
  // scalar alpha/beta/delta is refused too: every point would override it.
  auto fail = [&](std::string error) { reply->Done(Tag(std::move(error))); };
  const std::string fields[] = {"alpha", "beta", "delta"};
  std::vector<std::string> lists[3];
  RequestLine base = req;
  for (int i = 0; i < 3; ++i) {
    const std::string key = fields[i] + "s";
    if (req.args.count(fields[i]) > 0) {
      return fail(ErrorJson(Status::InvalidArgument("sweep does not take \"" +
                                                    fields[i] + "\"")));
    }
    std::istringstream ss(Arg(req, key, i == 2 ? "0" : "1"));
    for (std::string token; std::getline(ss, token, ',');) {
      lists[i].push_back(token);
    }
    if (lists[i].empty()) {
      return fail(ErrorJson(
          Status::InvalidArgument(key + " wants a nonempty comma list")));
    }
    base.args.erase(key);
  }
  constexpr std::size_t kMaxSweep = 4096;
  if (lists[0].size() * lists[1].size() * lists[2].size() > kMaxSweep) {
    return fail(ErrorJson("sweep grid too large (max 4096 points)"));
  }

  auto grid = std::make_shared<std::vector<QueryRequest>>();
  for (const std::string& alpha : lists[0]) {
    for (const std::string& beta : lists[1]) {
      for (const std::string& delta : lists[2]) {
        RequestLine point = base;
        point.args["alpha"] = alpha;
        point.args["beta"] = beta;
        point.args["delta"] = delta;
        auto built = BuildQueryRequest(point);
        if (!built.ok()) return fail(ErrorJson(built.status()));
        grid->push_back(std::move(built).value());
      }
    }
  }
  if (!reply->Admit(/*stream=*/false)) return;
  executor_.ExecuteBatchAsync(
      *grid, [id = id_, grid, reply](std::vector<QueryResult> results) {
        std::ostringstream os;
        os << "{\"ok\":true,\"cmd\":\"sweep\",\"queries\":" << grid->size()
           << ",\"results\":[";
        for (std::size_t i = 0; i < results.size(); ++i) {
          os << (i > 0 ? "," : "") << QueryResultJson((*grid)[i], results[i]);
        }
        os << "]}";
        reply->Done(TagSessionJson(id, os.str()));
      });
}

std::string ServerSession::EntryReply(const std::string& cmd,
                                      const std::string& name) {
  auto entry = catalog_.Get(name);
  if (entry == nullptr) return ErrorJson("entry vanished: " + name);
  return "{\"ok\":true,\"cmd\":\"" + cmd +
         "\",\"entry\":" + CatalogEntryJson(*entry) + "}";
}

namespace {

/// ServeStream's reply: writes each line to `out` as it arrives, from
/// whichever thread delivers it, and fulfils `answered` with the final
/// one. stdin has no in-flight bound, so nothing is turned away.
class StreamReply final : public ServerSession::Reply {
 public:
  StreamReply(std::ostream& out, std::uint64_t session)
      : out_(out), session_(session) {}

  bool Admit(bool /*stream*/) override { return true; }

  void Chunk(const QueryRequest& query, const StreamChunk& chunk) override {
    Write(TagSessionJson(session_, StreamChunkJson(query, chunk)));
  }

  void BadRequest(const Status& status) override {
    Done(TagSessionJson(session_, ErrorJson(status)));
  }

  void Done(std::string reply) override {
    if (!reply.empty()) Write(reply);
    answered.set_value();
  }

  std::promise<void> answered;

 private:
  void Write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    out_ << line << "\n" << std::flush;
  }

  std::ostream& out_;
  const std::uint64_t session_;
  std::mutex mu_;
};

}  // namespace

bool ServeStream(std::istream& in, std::ostream& out, ServerSession& session,
                 std::size_t max_request_bytes) {
  bool stop_server = false;
  bool keep_going = true;
  for (std::string line; keep_going && std::getline(in, line);) {
    auto reply = std::make_shared<StreamReply>(out, session.id());
    std::future<void> answered = reply->answered.get_future();
    if (line.size() <= max_request_bytes) {
      keep_going = session.Handle(line, reply, &stop_server);
    } else {
      reply->Done(TagSessionJson(
          session.id(), TypedErrorJson("too_large",
                                       "request line exceeds " +
                                           std::to_string(max_request_bytes) +
                                           " bytes")));
    }
    answered.wait();
  }
  return stop_server;
}

// ---------------------------------------------------------------------------
// Reactor: one epoll loop owning a share of the connections.
// ---------------------------------------------------------------------------

/// All Connection state is touched ONLY on the owning reactor's thread;
/// cross-thread inputs (new connections from the accept loop, answers
/// and stream chunks from executor runner threads) arrive through the
/// reactor's locked op queue + eventfd wakeup and are applied on the
/// loop thread.
class Reactor {
 public:
  explicit Reactor(TcpServer& server) : server_(server) {}

  ~Reactor() {
    RequestStop();
    Join();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Start() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::Internal("epoll_create1() failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status::Internal("eventfd() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // 0 is the wake sentinel; session ids start at 1.
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Status::Internal("epoll_ctl(wake) failed");
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Hands a freshly accepted (non-blocking, CLOEXEC, NODELAY) socket to
  /// this reactor. Called from the accept thread.
  void Adopt(int fd, std::uint64_t id) {
    PostOp(Op{Op::kAdopt, fd, id, 0, wire::Opcode::kReply, {}, {}});
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
    // The loop has exited; reap anything that raced in behind it so no
    // fd outlives the reactor (adopted-but-unprocessed sockets included).
    std::vector<Op> ops;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      ops.swap(ops_);
    }
    for (const Op& op : ops) {
      if (op.kind == Op::kAdopt) {
        ::close(op.fd);
        server_.active_conns_.fetch_sub(1, std::memory_order_release);
        server_.conns_gauge_->Decrement();
      }
    }
    server_.active_conns_.fetch_sub(static_cast<unsigned>(conns_.size()),
                                    std::memory_order_release);
    server_.conns_gauge_->Add(-static_cast<std::int64_t>(conns_.size()));
    conns_.clear();  // Connection dtor closes the fds.
  }

 private:
  /// One stream chunk on its way to a connection: the executor's chunk,
  /// whose shared encoded body a binary connection frames as it is, or a
  /// pre-tagged JSON line on line-protocol ones.
  struct StreamPart {
    StreamChunk chunk;
    std::string line;
  };

  struct Connection {
    Connection(GraphCatalog& catalog, QueryExecutor& executor, int fd_in,
               std::uint64_t id_in)
        : fd(fd_in), id(id_in), session(catalog, executor, id_in) {}
    ~Connection() {
      if (fd >= 0) ::close(fd);
    }

    int fd;
    const std::uint64_t id;
    enum class Proto { kUnknown, kLine, kBinary };
    Proto proto = Proto::kUnknown;
    std::string rbuf;
    std::string wbuf;
    bool want_write = false;
    /// Set by quit/stop/EOF/protocol errors: buffered input after the
    /// current request is discarded, no new requests are parsed.
    bool stop_reading = false;
    /// Close once every pending response has been written out.
    bool close_after_flush = false;
    ServerSession session;

    /// One response, in request order. Pipelining: a slot is appended
    /// when its request is parsed and flushed only when it is `ready`
    /// AND every older slot has been flushed — async queries that finish
    /// out of order wait their turn in the deque.
    struct Slot {
      std::uint64_t seq = 0;
      bool ready = false;
      wire::Opcode opcode = wire::Opcode::kReply;
      std::uint64_t request_id = 0;
      std::string body;
      /// Unflushed stream chunks, in stream order: they flush as they
      /// arrive once the slot reaches the front of the deque (progressive
      /// delivery, still in request order); `ready` + `body` then close
      /// the stream with a kReplyEnd frame / the regular reply line.
      std::vector<StreamPart> chunks;
    };
    std::deque<Slot> pending;
    std::uint64_t next_seq = 1;
    std::chrono::steady_clock::time_point last_activity;
  };

  /// A new connection, or an answer or stream chunk for slot `seq` of
  /// connection `conn_id`. The op queue is FIFO, so a stream's chunks and
  /// its final answer keep the executor's per-stream delivery order.
  struct Op {
    enum Kind { kAdopt, kComplete, kChunk };
    Kind kind;
    int fd;  ///< kAdopt: the accepted socket.
    std::uint64_t conn_id;
    std::uint64_t seq;
    /// kComplete: the binary frame the answer goes out as (kReply,
    /// kReplyEnd closing a stream, or kError); line slots ignore it.
    wire::Opcode opcode;
    std::string body;  ///< kComplete: the response body.
    StreamPart part;   ///< kChunk: the chunk.
  };

  /// The session's reply for one request: all it is given goes over the
  /// op queue to slot (conn id, seq) — by id, so a connection that dies
  /// mid-query just drops it. Admit takes one max_inflight ticket per
  /// query or sweep; Done gives it back once the answer is posted.
  class SlotReply final : public ServerSession::Reply {
   public:
    SlotReply(Reactor& reactor, std::uint64_t conn_id, std::uint64_t seq,
              bool binary)
        : reactor_(reactor), conn_id_(conn_id), seq_(seq), binary_(binary) {}

    bool Admit(bool stream) override {
      TcpServer& server = reactor_.server_;
      const unsigned limit = server.options_.max_inflight;
      const unsigned current =
          server.inflight_.fetch_add(1, std::memory_order_acq_rel);
      if (limit != 0 && current >= limit) {
        server.inflight_.fetch_sub(1, std::memory_order_release);
        Fail(wire::ErrorCode::kBusy,
             "server busy: max-inflight=" + std::to_string(limit));
        return false;
      }
      server.inflight_gauge_->Increment();
      ticket_ = true;
      stream_ = stream;
      return true;
    }

    void Chunk(const QueryRequest& query, const StreamChunk& chunk) override {
      StreamPart part;
      if (binary_) {
        part.chunk = chunk;
      } else {
        part.line = TagSessionJson(conn_id_, StreamChunkJson(query, chunk));
      }
      reactor_.PostOp(Op{Op::kChunk, -1, conn_id_, seq_, wire::Opcode::kReply,
                         {}, std::move(part)});
    }

    void BadRequest(const Status& status) override {
      // The line protocol's historical bad-query shape (no "code" field)
      // — old clients parse it, the smoke oracle diffs it.
      if (binary_) return Fail(wire::ErrorCode::kBadRequest, status.message());
      Done(TagSessionJson(conn_id_, ErrorJson(status)));
    }

    void Done(std::string reply) override {
      TcpServer& server = reactor_.server_;
      Complete(stream_ ? wire::Opcode::kReplyEnd : wire::Opcode::kReply,
               std::move(reply));
      if (!ticket_) return;
      // Release the ticket only AFTER the post: Serve()'s drain waits for
      // inflight_ == 0 and may tear the server down right after, so the
      // post — and every other touch of the server, the gauge included —
      // must already have landed.
      server.inflight_gauge_->Decrement();
      server.inflight_.fetch_sub(1, std::memory_order_release);
    }

    /// A typed error: a kError frame, or the line protocol's {"code":...}
    /// JSON. Every typed error funnels through here, so this is the one
    /// place the per-code error counters are bumped.
    void Fail(wire::ErrorCode code, const std::string& message) {
      const char* name = wire::ToString(code);
      reactor_.server_.ErrorCounter(name)->Increment();
      Complete(wire::Opcode::kError,
               binary_
                   ? wire::EncodeErrorPayload(code, message)
                   : TagSessionJson(conn_id_, TypedErrorJson(name, message)));
    }

    void Complete(wire::Opcode opcode, std::string body) {
      reactor_.PostOp(Op{Op::kComplete, -1, conn_id_, seq_, opcode,
                         std::move(body), {}});
    }

   private:
    Reactor& reactor_;
    const std::uint64_t conn_id_;
    const std::uint64_t seq_;
    const bool binary_;
    bool ticket_ = false;  ///< Admit took a max_inflight ticket.
    bool stream_ = false;  ///< an admitted stream: Done ends it.
  };

  void PostOp(Op op) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      was_empty = ops_.empty();
      ops_.push_back(std::move(op));
    }
    // Only the post that makes the queue non-empty wakes the loop: the
    // loop swaps the whole queue out after draining the eventfd, so any
    // later post lands in a batch it has yet to take, or wakes it anew.
    if (was_empty) Wake();
  }

  void Wake() {
    if (wake_fd_ < 0) return;
    std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }

  void Loop() {
    std::vector<epoll_event> events(64);
    for (;;) {
      int timeout = -1;
      if (server_.options_.client_deadline_ms > 0 && !conns_.empty()) {
        timeout = std::clamp(server_.options_.client_deadline_ms / 4, 5, 1000);
      }
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failing is unrecoverable for this loop.
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == 0) {
          std::uint64_t drained = 0;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;  // the op queue is applied below, once per wakeup.
        }
        // Look the connection up per event: an earlier event in this
        // batch may have closed it (stale entries must be skipped, never
        // dereferenced).
        auto it = conns_.find(events[i].data.u64);
        if (it == conns_.end()) continue;
        Connection* c = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(c);
          continue;
        }
        if ((events[i].events & EPOLLIN) && !HandleReadable(c)) continue;
        if (events[i].events & EPOLLOUT) Flush(c);
      }
      ApplyOps();
      SweepDeadlines();
      if (stop_.load(std::memory_order_acquire) && conns_.empty() &&
          NoPendingOps()) {
        break;
      }
    }
  }

  bool NoPendingOps() {
    std::lock_guard<std::mutex> lock(ops_mu_);
    return ops_.empty();
  }

  /// Applies the whole queued batch, then flushes each connection it
  /// touched once, so a burst of chunks leaves in as few sends as the
  /// socket allows.
  void ApplyOps() {
    std::vector<Op> ops;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      ops.swap(ops_);
    }
    std::vector<std::uint64_t> touched;
    for (Op& op : ops) {
      if (op.kind == Op::kAdopt) {
        auto conn = std::make_unique<Connection>(server_.catalog_,
                                                 server_.executor_, op.fd,
                                                 op.conn_id);
        conn->last_activity = std::chrono::steady_clock::now();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = op.conn_id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, op.fd, &ev) < 0) {
          server_.active_conns_.fetch_sub(1, std::memory_order_release);
          server_.conns_gauge_->Decrement();
          continue;  // conn dtor closes the fd.
        }
        conns_.emplace(op.conn_id, std::move(conn));
      } else {
        // Completion/chunk for a connection that died mid-query is
        // simply dropped — the executor already accounted for it.
        auto it = conns_.find(op.conn_id);
        if (it == conns_.end()) continue;
        for (Connection::Slot& slot : it->second->pending) {
          if (slot.seq != op.seq) continue;
          if (op.kind == Op::kChunk) {
            slot.chunks.push_back(std::move(op.part));
          } else {
            slot.opcode = op.opcode;
            slot.body = std::move(op.body);
            slot.ready = true;
          }
          break;
        }
        touched.push_back(op.conn_id);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (std::uint64_t id : touched) {
      // Flush may close its connection, so no pointer outlives it.
      auto it = conns_.find(id);
      if (it != conns_.end()) Flush(it->second.get());
    }
  }

  void SweepDeadlines() {
    const int deadline_ms = server_.options_.client_deadline_ms;
    if (deadline_ms <= 0 || conns_.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Connection*> expired;
    for (auto& kv : conns_) {
      Connection* conn = kv.second.get();
      // Only truly idle clients are reaped: a connection with responses
      // still pending or unflushed is waiting on US (or on its own read
      // loop), not dawdling.
      if (!conn->pending.empty() || !conn->wbuf.empty()) continue;
      if (now - conn->last_activity >
          std::chrono::milliseconds(deadline_ms)) {
        expired.push_back(conn);
      }
    }
    for (Connection* c : expired) CloseConn(c);
  }

  void CloseConn(Connection* c) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    server_.active_conns_.fetch_sub(1, std::memory_order_release);
    server_.conns_gauge_->Decrement();
    conns_.erase(c->id);  // dtor closes the fd.
  }

  /// Drains the socket into rbuf, consuming complete requests as they
  /// appear (so a pipelined burst never accumulates more than one
  /// incomplete request past the size cap). Returns false when the
  /// connection was closed.
  bool HandleReadable(Connection* c) {
    char chunk[16384];
    bool eof = false;
    for (;;) {
      const ssize_t r = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (r > 0) {
        server_.reads_->Increment();
        c->rbuf.append(chunk, static_cast<std::size_t>(r));
        c->last_activity = std::chrono::steady_clock::now();
        if (!ProcessInput(c)) return false;
        continue;
      }
      if (r == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return false;
    }
    if (eof) {
      c->stop_reading = true;
      if (c->pending.empty() && c->wbuf.empty()) {
        CloseConn(c);
        return false;
      }
      // In-flight queries still owe responses; deliver them, then close.
      c->close_after_flush = true;
    }
    return Flush(c);
  }

  /// Parses every complete request in rbuf. Returns false when the
  /// connection was closed.
  bool ProcessInput(Connection* c) {
    const std::size_t max_request = server_.options_.max_request_bytes;
    while (!c->stop_reading) {
      if (c->proto == Connection::Proto::kUnknown) {
        if (c->rbuf.empty()) break;
        // Protocol negotiation: wire::kMagic's low byte is not printable
        // ASCII, so the first byte decides unambiguously.
        c->proto = wire::LooksBinary(static_cast<unsigned char>(c->rbuf[0]))
                       ? Connection::Proto::kBinary
                       : Connection::Proto::kLine;
      }
      if (c->proto == Connection::Proto::kLine) {
        const std::size_t nl = c->rbuf.find('\n');
        // The cap triggers both on a complete-but-huge line and on an
        // unterminated one that already outgrew it (the latter stops a
        // hostile newline-free stream from allocating without bound).
        if (nl > max_request) {  // npos > max, so this covers both.
          if (nl != std::string::npos || c->rbuf.size() > max_request) {
            NewReply(c, 0)->Fail(wire::ErrorCode::kTooLarge,
                                 "request line exceeds " +
                                     std::to_string(max_request) + " bytes");
            c->stop_reading = true;
            c->close_after_flush = true;
          }
          break;
        }
        std::string line = c->rbuf.substr(0, nl);
        c->rbuf.erase(0, nl + 1);
        while (!line.empty() && line.back() == '\r') line.pop_back();
        HandleCommandText(c, line, 0);
      } else {
        wire::Frame frame;
        std::size_t consumed = 0;
        const wire::DecodeResult decoded =
            wire::DecodeFrame(c->rbuf, max_request, &frame, &consumed);
        if (decoded.status == wire::FrameStatus::kNeedMore) break;
        if (decoded.status == wire::FrameStatus::kBad) {
          // A corrupt length-prefixed stream cannot be resynchronized:
          // one typed error frame, then hang up.
          NewReply(c, 0)->Fail(decoded.code, decoded.message);
          c->stop_reading = true;
          c->close_after_flush = true;
          break;
        }
        c->rbuf.erase(0, consumed);
        HandleFrame(c, frame);
      }
    }
    return Flush(c);
  }

  static bool Binary(const Connection* c) {
    return c->proto == Connection::Proto::kBinary;
  }

  /// A reply into a fresh response slot. Binary framing answers EVERY
  /// request frame (pipelined clients match responses positionally / by
  /// id); a line slot left empty (a blank line or comment) writes nothing.
  std::shared_ptr<SlotReply> NewReply(Connection* c, std::uint64_t request_id) {
    const std::uint64_t seq = c->next_seq++;
    c->pending.push_back(
        Connection::Slot{seq, false, wire::Opcode::kReply, request_id, {}, {}});
    return std::make_shared<SlotReply>(*this, c->id, seq, Binary(c));
  }

  /// One request line — from the line protocol or a kCommand frame —
  /// handed to the connection's session.
  void HandleCommandText(Connection* c, const std::string& line,
                         std::uint64_t request_id) {
    bool stop_server = false;
    const bool keep_going = c->session.Handle(
        line, NewReply(c, request_id), &stop_server);
    if (stop_server) server_.RequestStop();
    if (!keep_going) {
      c->stop_reading = true;
      c->close_after_flush = true;
    }
  }

  void HandleFrame(Connection* c, wire::Frame& frame) {
    switch (frame.opcode) {
      case wire::Opcode::kPing:
        NewReply(c, frame.request_id)->Complete(wire::Opcode::kPong, "");
        return;
      case wire::Opcode::kCommand:
        HandleCommandText(c, frame.payload, frame.request_id);
        return;
      case wire::Opcode::kQuery: {
        std::shared_ptr<SlotReply> reply =
            NewReply(c, frame.request_id);
        bool stream = false;
        auto built = wire::DecodeQueryPayload(frame.payload, &stream);
        if (built.ok()) {
          c->session.Query(std::move(built).value(), stream, std::move(reply));
        } else {
          reply->BadRequest(built.status());
        }
        return;
      }
      default: {
        // DecodeFrame admits response opcodes (clients must decode
        // them), but a client sending one AT the server is confused.
        NewReply(c, frame.request_id)
            ->Fail(wire::ErrorCode::kBadFrame,
                   "response opcode sent to server");
        c->stop_reading = true;
        c->close_after_flush = true;
        return;
      }
    }
  }

  /// Moves ready-in-order responses into wbuf and writes as much as the
  /// socket accepts; manages EPOLLOUT registration and the
  /// close-after-flush epilogue. Returns false when the connection was
  /// closed.
  bool Flush(Connection* c) {
    while (!c->pending.empty()) {
      Connection::Slot& slot = c->pending.front();
      // Stream chunks flush as soon as their slot reaches the front:
      // progressive delivery without ever reordering responses.
      for (const StreamPart& part : slot.chunks) {
        if (Binary(c)) {
          const StreamChunk& chunk = part.chunk;
          const std::string& body = *chunk.body.bytes;
          wire::AppendFrameHeader(&c->wbuf, wire::Opcode::kReplyChunk,
                                  slot.request_id,
                                  wire::kChunkHeaderBytes + body.size());
          wire::AppendChunkPayload(&c->wbuf, chunk.seq, chunk.results_so_far,
                                   chunk.nodes_so_far, body);
        } else {
          c->wbuf += part.line;
          c->wbuf += '\n';
        }
      }
      slot.chunks.clear();
      if (!slot.ready) break;  // response (or stream tail) still pending.
      if (Binary(c)) {
        wire::AppendFrameHeader(&c->wbuf, slot.opcode, slot.request_id,
                                slot.body.size());
        c->wbuf += slot.body;
      } else if (!slot.body.empty()) {
        c->wbuf += slot.body;
        c->wbuf += '\n';
      }
      c->pending.pop_front();
    }
    bool wrote = false;
    while (!c->wbuf.empty()) {
      const ssize_t n =
          ::send(c->fd, c->wbuf.data(), c->wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        server_.writes_->Increment();
        wrote = true;
        c->wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);  // peer reset mid-response.
      return false;
    }
    if (wrote && c->wbuf.empty()) server_.flushes_->Increment();
    const bool want_write = !c->wbuf.empty();
    if (want_write != c->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      ev.data.u64 = c->id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->want_write = want_write;
    }
    if (c->close_after_flush && c->pending.empty() && c->wbuf.empty()) {
      CloseConn(c);
      return false;
    }
    return true;
  }

  TcpServer& server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex ops_mu_;
  std::vector<Op> ops_;
  /// Owned connections, keyed by session id. Loop-thread only.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// TcpServer: listener + accept loop over the reactor pool.
// ---------------------------------------------------------------------------

TcpServer::TcpServer(GraphCatalog& catalog, QueryExecutor& executor,
                     const TcpServerOptions& options)
    : catalog_(catalog),
      executor_(executor),
      options_(options),
      metrics_(executor.metrics()),
      accepts_(metrics_->GetCounter("fairbc_reactor_accepts_total",
                                    "TCP connections accepted.")),
      reads_(metrics_->GetCounter("fairbc_reactor_reads_total",
                                  "Successful socket reads (recv calls).")),
      writes_(metrics_->GetCounter("fairbc_reactor_writes_total",
                                   "Successful socket writes (send calls).")),
      flushes_(metrics_->GetCounter(
          "fairbc_reactor_flushes_total",
          "Flush passes that fully drained a connection's write buffer.")),
      server_full_(metrics_->GetCounter(
          "fairbc_server_full_total",
          "Connections turned away at max-sessions.")),
      sessions_metric_(metrics_->GetCounter("fairbc_sessions_total",
                                            "Sessions (connections) admitted.")),
      conns_gauge_(metrics_->GetGauge("fairbc_connections_active",
                                      "Live TCP connections.")),
      inflight_gauge_(metrics_->GetGauge(
          "fairbc_server_inflight_requests",
          "Query requests admitted by the server, not yet answered.")) {}

Counter* TcpServer::ErrorCounter(const char* code) {
  return metrics_->GetCounter("fairbc_server_errors_total",
                              "Typed request errors, by error code.",
                              std::string("code=\"") + code + "\"");
}

TcpServer::~TcpServer() {
  RequestStop();
  // Executor runner threads may still hold completions that post into a
  // reactor, so the reactor objects must outlive the last ticket.
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reactors_.clear();  // each dtor stops, joins and reaps its fds.
  if (listener_ >= 0) ::close(listener_);
}

Status TcpServer::Listen() {
  listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener_ < 0) {
    return Status::Internal("socket() failed");
  }
  int reuse = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  // A deep backlog: connection floods (thousands of clients at once)
  // must queue behind the serial accept loop instead of overflowing the
  // SYN queue into multi-second client-side retransmit stalls. The
  // kernel clamps this to net.core.somaxconn.
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener_, 4096) < 0) {
    ::close(listener_);
    listener_ = -1;
    return Status::Internal("cannot listen on 127.0.0.1:" +
                            std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = options_.port;
  }

  unsigned reactors = options_.reactor_threads;
  if (reactors == 0) {
    reactors = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  for (unsigned i = 0; i < reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(*this);
    Status st = reactor->Start();
    if (!st.ok()) {
      reactors_.clear();
      return st;
    }
    reactors_.push_back(std::move(reactor));
  }
  return Status::OK();
}

void TcpServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  // shutdown(2) — not close(2) — wakes a blocked accept() without
  // invalidating the fd another thread may be using: race-free shutdown.
  if (listener_ >= 0) ::shutdown(listener_, SHUT_RDWR);
  for (auto& reactor : reactors_) reactor->RequestStop();
}

void TcpServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int client = ::accept4(listener_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // A resident server must survive transient accept failures: a
      // client aborting in the backlog (ECONNABORTED), a signal (EINTR)
      // or fd exhaustion while sessions hold sockets (EMFILE/ENFILE —
      // back off briefly so the loop cannot spin at the limit).
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::perror("fairbc_server: accept");
      break;  // not a known-transient failure: shut down cleanly.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(client);
      break;
    }
    accepts_->Increment();
    // Small responses must not sit in Nagle's buffer behind a pipelined
    // request burst.
    int nodelay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    const unsigned admitted =
        active_conns_.fetch_add(1, std::memory_order_acq_rel);
    conns_gauge_->Increment();
    if (admitted >= options_.max_sessions) {
      active_conns_.fetch_sub(1, std::memory_order_release);
      conns_gauge_->Decrement();
      server_full_->Increment();
      // Turn the client away with a parseable error rather than leaving
      // it queued behind an unbounded backlog. (Best effort on a fresh
      // socket whose send buffer is empty.)
      std::string reply =
          ErrorJson("server full: max-sessions=" +
                    std::to_string(options_.max_sessions)) +
          "\n";
      (void)!::send(client, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(client);
      continue;
    }
    const std::uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    sessions_started_.fetch_add(1, std::memory_order_relaxed);
    sessions_metric_->Increment();
    reactors_[id % reactors_.size()]->Adopt(client, id);
  }
  // Drain: every reactor keeps serving its live connections until they
  // close, then exits; then wait for stragglers' completions to land.
  for (auto& reactor : reactors_) reactor->RequestStop();
  for (auto& reactor : reactors_) reactor->Join();
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace fairbc
