// Binary wire-protocol client for fairbc_server (docs/WIRE_PROTOCOL.md):
// reads line-protocol requests on stdin, ships them as binary frames —
// `query ...` lines as packed kQuery payloads, everything else as
// kCommand — and prints each response's JSON payload, one per line, so
// its output diffs 1:1 against the line protocol and the CLI oracle
// (that is how ci_service_smoke.sh uses it).
//
// Usage:
//   fairbc_wire_client --port=N [--pipeline] [--soak=K] [--stream]
//
//   --pipeline   send every request before reading any response, then
//                verify the responses come back in request order with
//                matching request ids (the server's per-connection
//                ordering guarantee).
//   --soak=K     hold K extra idle connections open for the whole run,
//                then ping each over the wire protocol and require a
//                pong — exercises the reactor's fd scalability.
//   --stream     set the stream flag on every kQuery frame: the server
//                answers with kReplyChunk frames closed by one kReplyEnd.
//                The client reassembles the chunks into a count and the
//                order-independent result digest and reports them (plus
//                first-chunk and total latency) as one extra
//                {"cmd":"stream_client",...} line after the kReplyEnd
//                JSON — so CI can assert streamed == batch against the
//                CLI oracle without trusting the server's own summary.
//
// Exit status is 2 on a usage error and nonzero on any protocol violation
// (bad frame, out of order response, failed soak ping), so CI can assert
// wire correctness by exit code alone.

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"
#include "service/response_json.h"
#include "service/server.h"
#include "service/wire.h"

namespace {

using fairbc::wire::DecodeFrame;
using fairbc::wire::EncodeFrame;
using fairbc::wire::Frame;
using fairbc::wire::FrameStatus;
using fairbc::wire::Opcode;

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one complete frame off the socket (blocking).
bool RecvFrame(int fd, std::string* buf, Frame* frame) {
  for (;;) {
    std::size_t consumed = 0;
    const auto decoded = DecodeFrame(
        *buf, /*max_payload=*/64u << 20, frame, &consumed);
    if (decoded.status == FrameStatus::kOk) {
      buf->erase(0, consumed);
      return true;
    }
    if (decoded.status == FrameStatus::kBad) {
      std::cerr << "wire_client: bad frame from server: " << decoded.message
                << "\n";
      return false;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::cerr << "wire_client: connection closed mid-frame\n";
      return false;
    }
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

/// Formats one response frame the way the line protocol would print it.
bool PrintResponse(const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kReply:
      if (!frame.payload.empty()) std::cout << frame.payload << "\n";
      return true;
    case Opcode::kPong:
      std::cout << "{\"ok\":true,\"cmd\":\"pong\"}\n";
      return true;
    case Opcode::kError: {
      fairbc::wire::ErrorCode code;
      std::string message;
      if (!fairbc::wire::DecodeErrorPayload(frame.payload, &code, &message)
               .ok()) {
        std::cerr << "wire_client: unparsable error payload\n";
        return false;
      }
      std::cout << fairbc::TypedErrorJson(fairbc::wire::ToString(code), message)
                << "\n";
      return true;
    }
    default:
      std::cerr << "wire_client: unexpected opcode in response\n";
      return false;
  }
}

/// Encodes one request line as a frame: `query` lines as packed kQuery
/// payloads (exercising the binary query codec), everything else as a
/// kCommand carrying the line verbatim. With `stream`, kQuery frames get
/// the stream flag and `*is_stream_query` reports that a chunked response
/// must be read back.
bool EncodeRequestLine(const std::string& line, std::uint64_t request_id,
                       bool stream, std::string* out, bool* is_stream_query) {
  const fairbc::RequestLine parsed = fairbc::ParseRequestLine(line);
  *is_stream_query = false;
  Frame frame;
  frame.request_id = request_id;
  if (parsed.command == "query") {
    auto built = fairbc::BuildQueryRequest(parsed);
    if (!built.ok()) {
      // Ship it as a command so the SERVER produces the error reply —
      // client-side validation must not shadow server behavior.
      frame.opcode = Opcode::kCommand;
      frame.payload = line;
    } else {
      frame.opcode = Opcode::kQuery;
      frame.payload = fairbc::wire::EncodeQueryPayload(built.value(), stream);
      *is_stream_query = stream;
    }
  } else {
    frame.opcode = Opcode::kCommand;
    frame.payload = line;
  }
  EncodeFrame(frame, out);
  return true;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Reads and prints the complete response to request `id`: one frame, or
/// — for stream-flagged queries — kReplyChunk frames closed by one
/// kReplyEnd, all echoing `id` contiguously. Chunks are reassembled
/// client-side (count + the order-independent BicliqueHash digest, via
/// DigestAccumulator — the same digest the batch path computes), and a
/// {"cmd":"stream_client",...} line reports the reassembly and latency.
bool ReadResponse(int fd, std::string* rbuf, std::uint64_t id, bool streamed,
                  std::chrono::steady_clock::time_point sent) {
  if (!streamed) {
    Frame frame;
    if (!RecvFrame(fd, rbuf, &frame)) return false;
    if (frame.request_id != id) {
      std::cerr << "error: response carries request id " << frame.request_id
                << ", want " << id << " (out of order)\n";
      return false;
    }
    return PrintResponse(frame);
  }
  fairbc::DigestAccumulator acc;
  std::uint64_t chunks = 0;
  double first_ms = -1.0;
  for (;;) {
    Frame frame;
    if (!RecvFrame(fd, rbuf, &frame)) return false;
    if (frame.request_id != id) {
      std::cerr << "error: stream frame carries request id "
                << frame.request_id << ", want " << id
                << " (stream interleaved)\n";
      return false;
    }
    if (first_ms < 0) first_ms = MsSince(sent);
    if (frame.opcode == Opcode::kReplyChunk) {
      auto chunk = fairbc::wire::DecodeChunkPayload(frame.payload);
      if (!chunk.ok()) {
        std::cerr << "error: bad chunk payload: "
                  << chunk.status().ToString() << "\n";
        return false;
      }
      ++chunks;
      if (chunk.value().seq != chunks) {
        std::cerr << "error: chunk seq " << chunk.value().seq << ", want "
                  << chunks << " (gap or reorder)\n";
        return false;
      }
      for (const fairbc::Biclique& b : chunk.value().bicliques) acc.Add(b);
      continue;
    }
    if (frame.opcode == Opcode::kReplyEnd) {
      const double total_ms = MsSince(sent);
      if (!frame.payload.empty()) std::cout << frame.payload << "\n";
      std::cout << "{\"ok\":true,\"cmd\":\"stream_client\",\"chunks\":"
                << chunks << ",\"count\":" << acc.count() << ",\"digest\":\""
                << fairbc::JsonHex64(acc.digest()) << "\",\"first_ms\":"
                << fairbc::JsonDouble(first_ms) << ",\"total_ms\":"
                << fairbc::JsonDouble(total_ms) << "}\n";
      return true;
    }
    // A rejected stream query is answered with a single kError frame.
    return PrintResponse(frame);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  fairbc::FlagParser flags;
  fairbc::Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << "error: " << st.ToString() << "\n";
    return 2;
  }
  const auto port = flags.GetInt("port", -1);
  const bool pipeline = flags.GetBool("pipeline", false);
  const bool stream = flags.GetBool("stream", false);
  const auto soak = flags.GetInt("soak", 0);
  if (flags.ReportBadFlags(std::cerr)) return 2;
  for (const std::string& name : flags.UnusedFlags()) {
    std::cerr << "warning: unknown flag --" << name << " ignored\n";
  }
  if (port <= 0 || port > 65535) {
    std::cerr << "error: --port=N (1..65535) is required\n";
    return 2;
  }
  if (soak < 0 || soak > 10000) {
    std::cerr << "error: --soak must be in [0, 10000]\n";
    return 2;
  }

  std::vector<int> soak_fds;
  soak_fds.reserve(static_cast<std::size_t>(soak));
  for (std::int64_t i = 0; i < soak; ++i) {
    const int fd = Connect(static_cast<int>(port));
    if (fd < 0) {
      std::cerr << "error: soak connection " << i << " failed\n";
      return 1;
    }
    soak_fds.push_back(fd);
  }

  const int fd = Connect(static_cast<int>(port));
  if (fd < 0) {
    std::cerr << "error: cannot connect to 127.0.0.1:" << port << "\n";
    return 1;
  }

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(std::cin, line)) {
    while (!line.empty() && line.back() == '\r') line.pop_back();
    // Blanks and comments produce no line-protocol output; skip them so
    // this client's stdout stays diffable against the stdin-mode replay.
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }

  int failures = 0;
  std::string rbuf;
  if (pipeline) {
    std::string burst;
    std::vector<bool> streamed(lines.size(), false);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      bool is_stream = false;
      EncodeRequestLine(lines[i], /*request_id=*/i + 1, stream, &burst,
                        &is_stream);
      streamed[i] = is_stream;
    }
    const auto sent = std::chrono::steady_clock::now();
    if (!SendAll(fd, burst)) {
      std::cerr << "error: pipelined send failed\n";
      return 1;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!ReadResponse(fd, &rbuf, i + 1, streamed[i], sent)) return 1;
    }
  } else {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string one;
      bool is_stream = false;
      EncodeRequestLine(lines[i], /*request_id=*/i + 1, stream, &one,
                        &is_stream);
      const auto sent = std::chrono::steady_clock::now();
      if (!SendAll(fd, one)) {
        std::cerr << "error: send failed at request " << i << "\n";
        return 1;
      }
      if (!ReadResponse(fd, &rbuf, i + 1, is_stream, sent)) return 1;
    }
  }
  ::close(fd);

  // The idle fleet must still be alive and serviceable after the whole
  // command stream ran on another connection.
  for (std::size_t i = 0; i < soak_fds.size(); ++i) {
    Frame ping;
    ping.opcode = Opcode::kPing;
    ping.request_id = 0xBEEF0000 + i;
    std::string encoded;
    EncodeFrame(ping, &encoded);
    std::string soak_buf;
    Frame pong;
    if (!SendAll(soak_fds[i], encoded) ||
        !RecvFrame(soak_fds[i], &soak_buf, &pong) ||
        pong.opcode != Opcode::kPong || pong.request_id != ping.request_id) {
      std::cerr << "error: soak connection " << i << " failed its ping\n";
      ++failures;
    }
    ::close(soak_fds[i]);
  }
  if (!soak_fds.empty() && failures == 0) {
    std::cerr << "soak: " << soak_fds.size() << " idle connections verified\n";
  }
  return failures == 0 ? 0 : 1;
}
