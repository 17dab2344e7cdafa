#ifndef FAIRBC_TESTS_SESSION_TEST_UTIL_H_
#define FAIRBC_TESTS_SESSION_TEST_UTIL_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "service/response_json.h"
#include "service/server.h"

namespace fairbc::testing {

/// Handles one line through `session` and waits for its answer: every
/// line it produced (stream chunk lines first, then the final reply),
/// joined by '\n', lands in `response` ("" for a blank line or comment).
/// Returns Handle's keep-going verdict.
inline bool HandleLine(ServerSession& session, const std::string& line,
                       std::string* response, bool* stop_server) {
  class Collect final : public ServerSession::Reply {
   public:
    explicit Collect(std::uint64_t session) : session_(session) {}
    bool Admit(bool /*stream*/) override { return true; }
    void Chunk(const QueryRequest& query, const StreamChunk& chunk) override {
      std::lock_guard<std::mutex> lock(mu_);
      Append(TagSessionJson(session_, StreamChunkJson(query, chunk)));
    }
    void BadRequest(const Status& status) override {
      Done(TagSessionJson(session_, ErrorJson(status)));
    }
    void Done(std::string reply) override {
      std::lock_guard<std::mutex> lock(mu_);
      if (!reply.empty()) Append(reply);
      done_ = true;
      cv_.notify_one();
    }
    std::string Wait() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return done_; });
      return lines_;
    }

   private:
    void Append(const std::string& line) {
      if (!lines_.empty()) lines_ += '\n';
      lines_ += line;
    }

    const std::uint64_t session_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::string lines_;
  };
  auto reply = std::make_shared<Collect>(session.id());
  const bool keep_going = session.Handle(line, reply, stop_server);
  *response = reply->Wait();
  return keep_going;
}

}  // namespace fairbc::testing

#endif  // FAIRBC_TESTS_SESSION_TEST_UTIL_H_
