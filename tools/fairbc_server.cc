// fairbc query server: a long-lived front end over the service layer
// (GraphCatalog + QueryExecutor + ResultCache + single-flight admission).
// The protocol, the session dispatch and the concurrent TCP front end
// live in src/service/server.{h,cc} (so the tests can drive them
// in-process); this file is argument parsing and wiring.
//
// Usage:
//   fairbc_server [--port=N] [--max-sessions=N] [--cache=ENTRIES]
//                 [--threads=N] [--preload=NAME=PATH] [--mmap]
//                 [--reactor-threads=N] [--max-inflight=N]
//                 [--max-request-bytes=N] [--client-deadline-ms=N]
//                 [--metrics-port=N] [--slow-query-ms=MS]
//
// Observability (docs/OBSERVABILITY.md): the `metrics` command returns
// the process-wide Prometheus exposition over either protocol, and
// --metrics-port=N additionally serves it as plain text on
// 0.0.0.0:N/metrics (0 = ephemeral, reported on stderr) for real
// scrapers. --slow-query-ms=MS enables per-query phase tracing: every
// executed query records spans, those at or above MS milliseconds are
// retained for the `trace` command and logged to stderr (MS=0 retains
// every executed query; negative/absent disables tracing).
//
// Without --port it speaks the line protocol on stdin/stdout (one
// session, id 0); with --port it listens on 127.0.0.1:N (0 = ephemeral,
// the bound port is reported on stderr) and serves up to --max-sessions
// TCP clients *concurrently* — all connections are multiplexed over a
// fixed pool of --reactor-threads epoll loops (0 = min(4, hw threads)),
// each connection carrying a unique session id stamped into every
// response, over the shared catalog/executor/cache. The same port
// speaks the line protocol AND the binary wire protocol (see
// docs/WIRE_PROTOCOL.md), negotiated on a connection's first byte.
// Clients beyond the bound are turned away with
// {"ok":false,"error":"server full..."}; query requests beyond
// --max-inflight get a typed "busy" error; requests larger than
// --max-request-bytes get a typed "too_large" error; connections idle
// longer than --client-deadline-ms are closed (0 = never).
//
// `quit` ends one session; `stop` ends the session AND the server: the
// accept loop stops admitting and drains (waits for the remaining
// sessions to finish their streams) before the process exits. In stdin
// mode the single session *is* the server, so quit and stop both
// terminate the process; stop is additionally logged as a server stop.
// See service/server.h for the full protocol.
//
// --threads=N sizes the executor's one thread pool (0 = one worker per
// hardware thread): its workers run the queries, and every query's
// parallel reduction and search lanes (the request's `threads=`) borrow
// the same workers, so the server never runs more query threads than N.
//
// --preload=NAME=PATH loads one snapshot before serving; with --mmap it
// is mapped in place (ReadSnapshotView) instead of copied, making the
// load allocation-free.

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/flags.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "service/graph_catalog.h"
#include "service/query_executor.h"
#include "service/server.h"

int main(int argc, char** argv) {
  using fairbc::GraphCatalog;
  using fairbc::Status;

  // A TCP client resetting its connection mid-response must surface as
  // a write() error, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
#if defined(__GLIBC__)
  // A stream churns megabytes of short-lived chunk buffers per request.
  // With glibc's default trim threshold (128 KiB, raised only after a
  // large mmapped block is freed) every stream hands that memory back to
  // the kernel and the next one faults it back in, which adds about 2 ms
  // to a cached replay's first result on loopback. Keep up to 64 MiB of
  // freed heap and serve blocks up to 32 MiB from it.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  fairbc::FlagParser flags;
  // Parse skips argv[0] itself; the server has no subcommand word.
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << "error: " << st.ToString() << "\n";
    return 2;
  }

  // Every flag is read before anything starts, so an unparsable value
  // stops the server before it listens or loads instead of running as
  // the flag's default.
  const auto pool_threads = flags.GetInt("threads", 0);
  const auto cache = flags.GetInt("cache", 256);
  const double slow_query_ms = flags.GetDouble("slow-query-ms", -1.0);
  const auto metrics_port = flags.GetInt("metrics-port", -1);
  const std::string preload = flags.GetString("preload", "");
  const bool use_mmap = flags.GetBool("mmap", false);
  const auto port = flags.GetInt("port", -1);
  const auto max_sessions = flags.GetInt("max-sessions", 8);
  const auto reactor_threads = flags.GetInt("reactor-threads", 0);
  const auto max_inflight = flags.GetInt("max-inflight", 256);
  const auto max_request_bytes =
      flags.GetInt("max-request-bytes",
                   static_cast<std::int64_t>(fairbc::kDefaultMaxRequestBytes));
  const auto client_deadline_ms = flags.GetInt("client-deadline-ms", 0);
  if (flags.ReportBadFlags(std::cerr)) return 2;
  // A value outside its window is a usage error too. A negative --port or
  // --metrics-port turns that listener off, and the connection windows
  // bind only with --port.
  auto out_of_window = [](const char* flag, std::int64_t value,
                          std::int64_t lo, std::int64_t hi) {
    if (value >= lo && value <= hi) return false;
    std::cerr << "error: --" << flag << " must be in [" << lo << ", " << hi
              << "]\n";
    return true;
  };
  if (out_of_window("threads", pool_threads, 0, fairbc::kMaxThreads) ||
      (metrics_port >= 0 &&
       out_of_window("metrics-port", metrics_port, 0, 65535)) ||
      (port >= 0 &&
       (out_of_window("port", port, 0, 65535) ||
        out_of_window("max-sessions", max_sessions, 1, 1024) ||
        out_of_window("reactor-threads", reactor_threads, 0, 64) ||
        out_of_window("max-inflight", max_inflight, 0, 1'000'000) ||
        out_of_window("max-request-bytes", max_request_bytes, 64, 1 << 30) ||
        out_of_window("client-deadline-ms", client_deadline_ms, 0,
                      86'400'000)))) {
    return 2;
  }
  const std::size_t preload_eq = preload.find('=');
  if (!preload.empty() && preload_eq == std::string::npos) {
    std::cerr << "error: --preload wants NAME=PATH\n";
    return 2;
  }
  for (const std::string& name : flags.UnusedFlags()) {
    std::cerr << "warning: unknown flag --" << name << " ignored\n";
  }

  GraphCatalog catalog;
  fairbc::QueryExecutorOptions options;
  options.num_threads = static_cast<unsigned>(pool_threads);
  options.cache_capacity = cache < 0 ? 0 : static_cast<std::size_t>(cache);
  // The server reports into the process registry so one scrape (the
  // `metrics` command or --metrics-port) covers executor, cache, kernel
  // and reactor counters together.
  options.metrics = &fairbc::MetricsRegistry::Global();
  options.slow_query_ms = slow_query_ms;
  if (options.slow_query_ms >= 0.0) {
    options.slow_query_log = [](const fairbc::QueryRequest& request,
                                const fairbc::QueryResult& result) {
      std::cerr << "slow query: graph=" << request.graph
                << " alpha=" << request.params.alpha
                << " beta=" << request.params.beta
                << " delta=" << request.params.delta << " wall_ms="
                << result.seconds * 1e3 << " (trace retained)\n";
    };
  }
  fairbc::QueryExecutor executor(catalog, options);

  fairbc::MetricsHttpServer metrics_http(&fairbc::MetricsRegistry::Global());
  if (metrics_port >= 0) {
    std::string error;
    if (!metrics_http.Start(static_cast<std::uint16_t>(metrics_port),
                            &error)) {
      std::cerr << "error: metrics listener: " << error << "\n";
      return 1;
    }
    std::cerr << "metrics on 0.0.0.0:" << metrics_http.port()
              << "/metrics\n";
  }

  // --preload=NAME=PATH loads one snapshot before serving (--mmap maps
  // it in place instead of copying).
  if (!preload.empty()) {
    Status loaded = catalog.AddFromFile(
        preload.substr(0, preload_eq), preload.substr(preload_eq + 1),
        use_mmap ? GraphCatalog::Format::kSnapshotMmap
                 : GraphCatalog::Format::kSnapshot);
    if (!loaded.ok()) {
      std::cerr << "error: preload failed: " << loaded.ToString() << "\n";
      return 1;
    }
  }

  if (port >= 0) {
    fairbc::TcpServerOptions tcp;
    tcp.port = static_cast<int>(port);
    tcp.max_sessions = static_cast<unsigned>(max_sessions);
    tcp.reactor_threads = static_cast<unsigned>(reactor_threads);
    tcp.max_inflight = static_cast<unsigned>(max_inflight);
    tcp.max_request_bytes = static_cast<std::size_t>(max_request_bytes);
    tcp.client_deadline_ms = static_cast<int>(client_deadline_ms);
    fairbc::TcpServer server(catalog, executor, tcp);
    Status listening = server.Listen();
    if (!listening.ok()) {
      std::cerr << "error: " << listening.ToString() << "\n";
      return 1;
    }
    std::cerr << "listening on 127.0.0.1:" << server.port() << "\n";
    server.Serve();
    std::cerr << "server stopped after " << server.sessions_started()
              << " sessions\n";
    return 0;
  }

  fairbc::ServerSession session(catalog, executor, /*id=*/0);
  const bool stop_requested = ServeStream(std::cin, std::cout, session);
  // Uniform stop semantics: in stdin mode the single session is the
  // server, so both quit and stream end finish the process; an explicit
  // `stop` is surfaced as the server stop it asked for.
  if (stop_requested) std::cerr << "server stopped\n";
  return 0;
}
