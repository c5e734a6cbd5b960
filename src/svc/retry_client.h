// ResilientClient: the one retry loop over svc::Client. call() sends one
// request frame and retries it until an answer comes back; Solve, Ping and
// the session stream (svc/session_client.h) are thin layers over it.
//
// Every attempt resends the identical frame under the same request id, so
// a retried session frame is answered from the server's exactly-once dedup
// (docs/streaming.md) and a retried Solve or Ping is simply idempotent.
// The decision table, the same for every request type:
//   * transport errors (send/recv failure, EOF, torn or corrupt reply
//     frame, receive timeout) tear the connection down and retry on a
//     fresh one — the dead connection is never reused, so a stale reply
//     can never be matched to a later request;
//   * so does any reply that cannot be the answer: a wrong request id, a
//     malformed error payload, a type that does not answer the request,
//     or a payload that does not decode as its type (wire's check_answer);
//   * Overloaded backs off and retries on the same connection;
//   * Draining retries on a fresh connection, since that server instance
//     will not accept new work again;
//   * BadRequest / Internal also retry on a fresh connection: the wire
//     has no checksum, so a BadRequest may be line corruption of a good
//     frame. A genuinely malformed request fails every attempt and comes
//     back as the give-up error;
//   * every other server error (DeadlineExceeded, the session errors,
//     codes this client does not know) is a final answer, returned
//     without retrying.
//
// Backoff is bounded exponential with seeded jitter (deterministic for a
// given RetryPolicy::jitter_seed), so chaos campaigns replay identically.
// Every decision is visible in obs counters: client.connects,
// client.reconnects, client.retries, client.timeouts, client.gave_up.
//
// Thread-safety: like Client, one ResilientClient per thread.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/fault/io_shim.h"
#include "util/rng.h"

namespace lrb::svc {

struct RetryPolicy {
  /// Attempts per request (first try included). 0 is treated as 1.
  std::size_t max_attempts = 8;
  std::uint32_t connect_timeout_ms = 2000;
  /// Per-attempt budget for the reply to arrive; 0 = wait forever.
  std::uint32_t solve_timeout_ms = 10000;
  /// Backoff before retry a (1-based) is
  /// min(cap, base << (a-1)) * uniform[0.5, 1.0) from the jitter stream.
  std::uint32_t backoff_base_ms = 2;
  std::uint32_t backoff_cap_ms = 250;
  std::uint64_t jitter_seed = 1;
};

class ResilientClient {
 public:
  ResilientClient(Endpoint endpoint, RetryPolicy policy = {},
                  obs::Registry* metrics = &obs::Registry::global(),
                  fault::SocketIo* io = &fault::SocketIo::real());

  /// The answer to one call.
  struct Reply {
    MsgType type = MsgType::kError;
    std::string payload;  ///< reply payload bytes
    std::optional<ErrorReply> server_error;  ///< set iff type == kError
    std::size_t attempts = 1;                ///< round-trips consumed
  };

  /// Sends `payload` as a `type` frame under `request_id` and retries per
  /// the table above. The reply is an answer to `type` whose payload
  /// decodes, or a final server error. nullopt (and *error: "gave up after
  /// N attempts: <last error>") only when every attempt failed.
  [[nodiscard]] std::optional<Reply> call(MsgType type,
                                          std::uint64_t request_id,
                                          std::string_view payload,
                                          std::string* error);

  /// Solve over call(): the result or the final server error, or nullopt
  /// (and *error) once every attempt failed.
  [[nodiscard]] std::optional<Client::SolveOutcome> solve(
      const SolveRequest& request, std::uint64_t request_id,
      std::string* error);

  /// Ping over call(): true once the Pong comes back; false (and *error)
  /// on give-up or a final server error.
  [[nodiscard]] bool ping(std::uint64_t request_id, std::string* error);

  /// Drops the current connection (the next request reconnects).
  void disconnect();

  [[nodiscard]] const RetryPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  [[nodiscard]] bool ensure_connected(std::string* error);
  void backoff(std::size_t attempt);

  Endpoint endpoint_;
  RetryPolicy policy_;
  fault::SocketIo* io_;
  Client client_;
  bool ever_connected_ = false;
  Rng jitter_;

  obs::Counter& m_connects_;
  obs::Counter& m_reconnects_;
  obs::Counter& m_retries_;
  obs::Counter& m_timeouts_;
  obs::Counter& m_gave_up_;
};

}  // namespace lrb::svc
