#include "svc/retry_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace lrb::svc {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

ResilientClient::ResilientClient(Endpoint endpoint, RetryPolicy policy,
                                 obs::Registry* metrics, fault::SocketIo* io)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      io_(io),
      jitter_(splitmix64(policy.jitter_seed)),
      m_connects_(metrics->counter("client.connects")),
      m_reconnects_(metrics->counter("client.reconnects")),
      m_retries_(metrics->counter("client.retries")),
      m_timeouts_(metrics->counter("client.timeouts")),
      m_gave_up_(metrics->counter("client.gave_up")) {
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
}

void ResilientClient::disconnect() { client_.close(); }

bool ResilientClient::ensure_connected(std::string* error) {
  if (client_.connected()) return true;
  auto client =
      Client::connect(endpoint_, error, io_, policy_.connect_timeout_ms);
  if (!client) return false;
  client_ = std::move(*client);
  m_connects_.add(1);
  if (ever_connected_) m_reconnects_.add(1);
  ever_connected_ = true;
  return true;
}

void ResilientClient::backoff(std::size_t attempt) {
  // min(cap, base * 2^(attempt-1)), shift kept in range to avoid UB.
  const auto shift = std::min<std::size_t>(attempt > 0 ? attempt - 1 : 0, 20);
  const std::uint64_t raw = std::uint64_t{policy_.backoff_base_ms} << shift;
  const auto capped = std::min<std::uint64_t>(raw, policy_.backoff_cap_ms);
  const double jittered =
      static_cast<double>(capped) * jitter_.uniform_real(0.5, 1.0);
  if (jittered >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(jittered));
  }
}

std::optional<ResilientClient::Reply> ResilientClient::call(
    MsgType type, std::uint64_t request_id, std::string_view payload,
    std::string* error) {
  const auto reply_deadline = [this] {
    return policy_.solve_timeout_ms > 0
               ? std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(policy_.solve_timeout_ms)
               : std::chrono::steady_clock::time_point::max();
  };
  std::string last_error = "no attempts made";
  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      m_retries_.add(1);
      backoff(attempt - 1);
    }
    if (!ensure_connected(&last_error)) continue;
    Reply reply;
    reply.attempts = attempt;
    FrameHeader header;
    bool timed_out = false;
    if (!client_.send_frame(type, request_id, payload, &last_error) ||
        !client_.recv_frame_until(&header, &reply.payload, reply_deadline(),
                                  &last_error, &timed_out)) {
      if (timed_out) m_timeouts_.add(1);
      // Whatever broke (send, timeout, EOF, torn frame), this connection
      // may still carry a stale reply: never reuse it.
      client_.close();
      continue;
    }
    reply.type = header.type;
    if (header.request_id != request_id) {
      last_error = "reply request id mismatch";
      client_.close();
      continue;
    }
    if (header.type != MsgType::kError) {
      if (auto problem = check_answer(type, header.type, reply.payload)) {
        last_error = std::move(*problem);
        client_.close();
        continue;
      }
      return reply;
    }
    reply.server_error = decode_error_payload(reply.payload);
    if (!reply.server_error) {
      last_error = "malformed error reply";
      client_.close();
      continue;
    }
    switch (reply.server_error->code) {
      case ErrorCode::kOverloaded:
        last_error = "server overloaded";
        continue;  // connection stays healthy; just back off
      case ErrorCode::kDraining:
      case ErrorCode::kBadRequest:
      case ErrorCode::kInternal:
        // Draining: this server instance is going away, and a later
        // attempt must reach its replacement. BadRequest / Internal: the
        // wire has no checksum, so this may be line corruption of a
        // perfectly good frame. A genuinely malformed request recurs
        // every attempt and surfaces as the give-up error.
        last_error = std::string("server error: ") +
                     error_code_name(reply.server_error->code) + ": " +
                     reply.server_error->text;
        client_.close();
        continue;
      default:
        return reply;  // final: DeadlineExceeded, session errors, unknown
    }
  }
  m_gave_up_.add(1);
  fail(error, "gave up after " + std::to_string(policy_.max_attempts) +
                  " attempts: " + last_error);
  return std::nullopt;
}

std::optional<Client::SolveOutcome> ResilientClient::solve(
    const SolveRequest& request, std::uint64_t request_id,
    std::string* error) {
  auto reply =
      call(MsgType::kSolve, request_id, encode_solve_request(request), error);
  if (!reply) return std::nullopt;
  auto outcome = Client::decode_solve_outcome(reply->type,
                                              std::move(reply->payload), error);
  if (outcome) outcome->attempts = reply->attempts;
  return outcome;
}

bool ResilientClient::ping(std::uint64_t request_id, std::string* error) {
  const auto reply = call(MsgType::kPing, request_id, "", error);
  if (!reply) return false;
  if (!reply->server_error) return true;
  return fail(error, std::string("server error: ") +
                         error_code_name(reply->server_error->code) + ": " +
                         reply->server_error->text);
}

}  // namespace lrb::svc
