#ifndef FAIRBC_SERVICE_SERVER_H_
#define FAIRBC_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_executor.h"

namespace fairbc {

/// Line protocol of fairbc_server, shared by the stdin/stdout mode, the
/// TCP mode and the in-process tests. One request per line, `command
/// key=value ...`; one JSON object per response line (every response
/// carries the serving session's id as `"session":N`). Blank lines and
/// `#` comments are ignored. Malformed requests — including unparsable
/// or out-of-range numeric arguments and any key the command below does
/// not list — get {"ok":false,"error":...}; the server never exits on bad
/// input.
///
///   ping
///   load name=G path=FILE [format=snapshot|mmap|attr|edges]
///   gen name=G [kind=uniform|powerlaw|affiliation] [nu=N] [nv=N]
///       [edges=M] [attrs=K] [seed=S] [communities=C] [gamma=G]
///   save name=G path=FILE [compress=0|1] [block=EDGES_PER_BLOCK]
///        (compress=1 writes the v3 compressed snapshot format)
///   catalog
///   query graph=G [model=ssfbc|bsfbc] [algo=pp|bcem|naive] [alpha=A]
///         [beta=B] [delta=D] [theta=T] [ordering=deg|id]
///         [pruning=colorful|core|none] [budget=SECONDS] [threads=N]
///         [cache=0|1] [top_k=K] [rank=weight|size|balance] [rid=TOKEN]
///         [stream=0|1]
///         (top_k=K returns only the K best bicliques under `rank`;
///          rid=TOKEN is a client correlation id echoed as "request_id"
///          in every response line of the query and retained in its
///          trace; stream=1 answers with zero or more
///          {"cmd":"chunk",...} lines carrying the bicliques, followed
///          by the regular query reply line as the end-of-stream marker)
///   sweep graph=G alphas=2,3 betas=2,3 deltas=1,2 [query keys...]
///   cache        (cache + single-flight telemetry; takes no arguments —
///                 extra keys are a typed bad_argument error)
///   metrics      (full Prometheus exposition of the process registry,
///                 JSON-escaped into the "text" field — one scrape
///                 covers executor, cache, kernel and reactor counters)
///   trace [n=N]  (the N most recent retained slow-query traces, newest
///                 first, each a Chrome trace-event JSON object; see
///                 --slow-query-ms and docs/OBSERVABILITY.md. n must be
///                 an integer in [1, 1024] and no other keys are
///                 accepted — violations are typed bad_argument errors)
///   drop name=G
///   quit         (ends THIS session: closes the TCP connection / stops
///                 reading the stdin stream; the server keeps serving
///                 other sessions)
///   stop         (ends this session AND stops the server: no new TCP
///                 connections are accepted and the front end drains —
///                 Serve() returns once every active connection has
///                 closed. In stdin mode the single session is the
///                 server, so quit and stop both terminate the process;
///                 stop additionally reports the server-stop intent to
///                 the caller, which logs it.)
///
/// The same port also speaks a length-prefixed binary protocol (see
/// service/wire.h and docs/WIRE_PROTOCOL.md): the first byte of a
/// connection selects the protocol — wire::kMagic's low byte is not
/// printable ASCII, so the two framings cannot collide.
struct RequestLine {
  std::string command;
  std::map<std::string, std::string> args;
};

RequestLine ParseRequestLine(const std::string& line);

/// Builds a QueryRequest from a `query` line. The request fields go
/// through ReadQueryText (service/query.h), the names, number grammar and
/// windows `fairbc_cli enum` and the binary protocol share; the line adds
/// graph (required), cache, rid (ValidRequestId) and stream, which
/// `stream` (nullable) receives since it is not part of the request. Any
/// other key, like the CLI's `top-k`, is an error naming it.
Result<QueryRequest> BuildQueryRequest(const RequestLine& req,
                                       bool* stream = nullptr);

/// Prefixes `"session":id` into a `{...}` response object (identity on
/// anything that is not an object). Every per-session response emitter —
/// ServerSession and the front ends' stream chunk and error lines — goes
/// through this one function so the tag format cannot drift.
std::string TagSessionJson(std::uint64_t id, std::string json);

/// One server session: shares the catalog/executor (and therefore the
/// result cache and single-flight table) with every other session; owns
/// nothing but its id. It is the one place that admits queries and
/// sweeps, only asynchronously: no thread that calls it waits on a query.
class ServerSession {
 public:
  /// Where one request's answer goes; the front end frames it. A query
  /// or sweep answers from the executor thread that finishes it (inline
  /// on a cache hit), anything else before Handle returns: one
  /// BadRequest or Done per request, unless Admit turns it away.
  class Reply {
   public:
    virtual ~Reply() = default;
    /// Called before a query (`stream`: a `stream=1` one) or sweep that
    /// read is admitted. False: the front end has answered it (`busy`).
    virtual bool Admit(bool stream) = 0;
    /// A stream's result chunk, in order; never the end-of-stream marker.
    virtual void Chunk(const QueryRequest& query, const StreamChunk& chunk) = 0;
    /// A `query` whose request does not read.
    virtual void BadRequest(const Status& status) = 0;
    /// The final reply, tagged; "" for a blank line or comment.
    virtual void Done(std::string reply) = 0;
  };

  ServerSession(GraphCatalog& catalog, QueryExecutor& executor,
                std::uint64_t id);

  /// Handles one request line, answering through `reply`. Returns false
  /// when the session ends (quit/stop); `stop` latches `stop_server`.
  bool Handle(const std::string& line, std::shared_ptr<Reply> reply,
              bool* stop_server);

  /// Admits one query that has already read: a `query` line after
  /// BuildQueryRequest, or a binary kQuery frame.
  void Query(QueryRequest query, bool stream, std::shared_ptr<Reply> reply);

  std::uint64_t id() const { return id_; }

 private:
  std::string Dispatch(const RequestLine& req);
  std::string Load(const RequestLine& req);
  std::string Gen(const RequestLine& req);
  std::string Save(const RequestLine& req);
  std::string Drop(const RequestLine& req);
  std::string Catalog();
  std::string Cache(const RequestLine& req);
  void Sweep(const RequestLine& req, std::shared_ptr<Reply> reply);
  std::string Metrics();
  std::string Trace(const RequestLine& req);
  std::string EntryReply(const std::string& cmd, const std::string& name);
  std::string Tag(std::string json) const;

  GraphCatalog& catalog_;
  QueryExecutor& executor_;
  const std::uint64_t id_;
};

/// Default cap on one request (a line, or a binary frame payload): large
/// enough for any real sweep grid, small enough that a buggy or hostile
/// client cannot drive unbounded allocation.
inline constexpr std::size_t kDefaultMaxRequestBytes = 1 << 20;

/// Serves one already-open line stream (the stdin/stdout mode), writing
/// each answer line as it arrives and reading the next request after the
/// final one. Returns true when the session ended via `stop` (server
/// shutdown requested), false on `quit` or end of stream. Lines longer than
/// `max_request_bytes` get a typed "too_large" error and are not
/// dispatched (the stream keeps going — stdin is a trusted local pipe,
/// unlike a TCP peer, whose connection is closed instead).
bool ServeStream(std::istream& in, std::ostream& out, ServerSession& session,
                 std::size_t max_request_bytes = kDefaultMaxRequestBytes);

struct TcpServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Connections served concurrently; further clients are turned away
  /// with a "server full" error response. Must be >= 1.
  unsigned max_sessions = 8;
  /// Reactor (event-loop) threads multiplexing all connections;
  /// 0 = min(4, hardware threads).
  unsigned reactor_threads = 0;
  /// Global bound on admitted-but-unanswered queries and sweeps (leaders
  /// AND coalesced duplicates, across all connections; a sweep counts
  /// once). Requests beyond it get a typed "busy" error instead of
  /// queueing unboundedly. 0 = unlimited.
  unsigned max_inflight = 256;
  /// Per-request size cap: a line longer than this, or a binary frame
  /// whose header announces a larger payload, draws a typed "too_large"
  /// error and the connection is closed (a length-prefixed stream cannot
  /// be resynchronized past a rejected frame).
  std::size_t max_request_bytes = kDefaultMaxRequestBytes;
  /// Idle deadline: a connection with no traffic and no pending
  /// responses for this long is closed. 0 = never (the default — idle
  /// monitoring connections are legitimate).
  int client_deadline_ms = 0;
};

class Reactor;

/// Event-driven TCP front end: a small fixed pool of reactor threads
/// (epoll, level-triggered) multiplexes every client connection over
/// non-blocking sockets. Each accepted connection is pinned to one
/// reactor, which owns all its state — read/write buffers, protocol
/// (line vs. binary, negotiated on the first byte), and the ordered
/// response queue that implements pipelining: clients may send many
/// requests without reading; responses are delivered strictly in request
/// order per connection.
///
/// Every request goes to the connection's ServerSession with a reply
/// into its response slot, and no reactor thread ever waits on a query:
/// queries and sweeps are admitted against the global in-flight bound
/// and run on the executor. Answers, and a `stream=1` query's chunks
/// (framed as encoded on binary connections, flushed progressively once
/// their slot reaches the front of the queue), reach the owning reactor
/// over its op queue (eventfd wakeup).
///
/// Shutdown: `stop` (from any session) or RequestStop() stops the accept
/// loop race-free (shutdown(2) on the listener wakes a blocked accept)
/// and Serve() then drains — every reactor keeps serving its live
/// connections until they close, then exits, and every admitted query
/// and sweep has answered — before returning.
class TcpServer {
 public:
  TcpServer(GraphCatalog& catalog, QueryExecutor& executor,
            const TcpServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds and listens on 127.0.0.1:options.port and starts the reactor
  /// threads. Must be called (and have succeeded) before Serve().
  Status Listen();

  /// The bound port (resolves options.port == 0 to the ephemeral pick).
  int port() const { return port_; }

  /// Blocking accept loop; returns after a stop request has been seen,
  /// every connection has closed, every reactor thread has been joined,
  /// and every outstanding async query completion has landed.
  void Serve();

  /// Stops accepting new connections, wakes a blocked accept and tells
  /// the reactors to drain. Safe from any thread (sessions call it when
  /// they see `stop`).
  void RequestStop();

  /// Sessions (connections) ever admitted (telemetry/test aid).
  std::uint64_t sessions_started() const {
    return sessions_started_.load(std::memory_order_relaxed);
  }

 private:
  friend class Reactor;

  /// fairbc_server_errors_total{code="..."} series for one typed error
  /// category (wire::ToString name). Registration is idempotent, so the
  /// lazy per-error call is just a registry lookup after the first.
  Counter* ErrorCounter(const char* code);

  GraphCatalog& catalog_;
  QueryExecutor& executor_;
  const TcpServerOptions options_;
  /// Reactor/front-end counters, registered against the executor's
  /// registry so the `metrics` command and --metrics-port scrape cover
  /// the whole process.
  MetricsRegistry* metrics_;
  Counter* accepts_;    ///< connections accepted (admitted or not).
  Counter* reads_;      ///< successful recv() calls across reactors.
  Counter* writes_;     ///< successful send() calls across reactors.
  Counter* flushes_;    ///< Flush() passes that fully drained a wbuf.
  Counter* server_full_;  ///< connections turned away at max_sessions.
  Counter* sessions_metric_;  ///< sessions admitted (mirrors counter).
  Gauge* conns_gauge_;  ///< live connections (mirrors active_conns_).
  Gauge* inflight_gauge_;  ///< queries and sweeps admitted (mirrors inflight_).
  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<std::uint64_t> sessions_started_{0};
  /// Live connections across all reactors (admission vs. max_sessions).
  std::atomic<unsigned> active_conns_{0};
  /// Admitted-but-unanswered queries and sweeps (admission vs.
  /// max_inflight, and the Serve() epilogue's completion drain).
  std::atomic<unsigned> inflight_{0};
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_SERVER_H_
