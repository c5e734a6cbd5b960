#include "svc/session_client.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

namespace lrb::svc {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

std::string describe_ack(const SessionClient::Ack& ack) {
  if (!ack.server_error) return "unexpected reply type";
  return std::string(error_code_name(ack.server_error->code)) + ": " +
         ack.server_error->text;
}

}  // namespace

SessionClient::SessionClient(Endpoint endpoint, RetryPolicy policy,
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

bool SessionClient::ensure_connected(std::string* error) {
  if (client_.connected()) return true;
  std::string connect_error;
  auto client =
      endpoint_.unix_path.empty()
          ? Client::connect_tcp(endpoint_.tcp_host, endpoint_.tcp_port,
                                &connect_error, io_,
                                policy_.connect_timeout_ms)
          : Client::connect_unix(endpoint_.unix_path, &connect_error, io_,
                                 policy_.connect_timeout_ms);
  if (!client) return set_error(error, connect_error);
  client_ = std::move(*client);
  m_connects_.add(1);
  if (ever_connected_) m_reconnects_.add(1);
  ever_connected_ = true;
  return true;
}

void SessionClient::backoff(std::size_t attempt) {
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

std::optional<SessionClient::Ack> SessionClient::call_with_retry(
    MsgType type, const std::string& payload, std::string* error) {
  // One request id for every attempt of this logical call: a retry is a
  // byte-identical resend of the original frame, which is exactly what the
  // server's duplicate detection answers from its stored reply.
  const std::uint64_t request_id = next_request_id_++;
  std::string last_error = "no attempts made";
  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      m_retries_.add(1);
      backoff(attempt - 1);
    }
    if (!ensure_connected(&last_error)) continue;
    if (!client_.send_frame(type, request_id, payload, &last_error)) {
      client_.close();
      continue;
    }
    const auto deadline =
        policy_.solve_timeout_ms > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(policy_.solve_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    FrameHeader header;
    std::string reply;
    bool timed_out = false;
    if (!client_.recv_frame_until(&header, &reply, deadline, &last_error,
                                  &timed_out)) {
      if (timed_out) m_timeouts_.add(1);
      // The dead connection may still carry a stale reply: never reuse it.
      client_.close();
      continue;
    }
    if (header.request_id != request_id) {
      last_error = "reply request id mismatch";
      client_.close();
      continue;
    }
    Ack ack;
    ack.attempts = attempt;
    ack.type = header.type;
    if (header.type != MsgType::kError) {
      ack.raw_payload = std::move(reply);
      return ack;
    }
    auto server_error = decode_error_payload(reply);
    if (!server_error) {
      last_error = "malformed error reply";
      client_.close();
      continue;
    }
    switch (server_error->code) {
      case ErrorCode::kOverloaded:
        last_error = "server overloaded";
        continue;  // connection stays healthy; just back off
      case ErrorCode::kDraining:
        last_error = "server draining";
        client_.close();
        continue;
      case ErrorCode::kBadRequest:
      case ErrorCode::kInternal:
        // Possibly line corruption of a good frame (the wire has no
        // checksum); the resend is dedup-safe, so retry like the one-shot
        // client does. A genuinely bad frame recurs every attempt and
        // surfaces as the give-up error.
        last_error = std::string("server error: ") +
                     error_code_name(server_error->code) + ": " +
                     server_error->text;
        client_.close();
        continue;
      default:
        // Session errors (unknown/exists/sequence/closed) and deadline
        // are definitive outcomes for this call.
        ack.raw_payload = std::move(reply);
        ack.server_error = std::move(*server_error);
        return ack;
    }
  }
  m_gave_up_.add(1);
  set_error(error, "gave up after " + std::to_string(policy_.max_attempts) +
                       " attempts: " + last_error);
  return std::nullopt;
}

std::optional<SessionClient::Ack> SessionClient::open(
    const SessionOpenRequest& request, std::string* error) {
  session_id_ = request.session_id;
  return call_with_retry(MsgType::kSessionOpen,
                         encode_session_open_request(request), error);
}

std::optional<SessionClient::Ack> SessionClient::send_deltas(
    const SessionDeltaRequest& request, std::string* error) {
  return call_with_retry(MsgType::kSessionDelta,
                         encode_session_delta_request(request), error);
}

std::optional<SessionClient::Ack> SessionClient::stats(std::string* error) {
  return call_with_retry(MsgType::kSessionStats,
                         encode_session_id_payload(session_id_), error);
}

std::optional<SessionClient::Ack> SessionClient::close_session(
    std::string* error) {
  return call_with_retry(MsgType::kSessionClose,
                         encode_session_id_payload(session_id_), error);
}

// ---------------------------------------------------------------------------
// run_session_stream: stream a delta log, mirroring the server reply by
// reply. The mirror is a local ClusterSession wired to the serial
// reference solver and stepped over the SAME framing as the wire calls,
// so every expected reply can be re-encoded and byte-compared — the
// strongest form of the determinism check (full reply payloads, not just
// plan contents). The mirror reports makespan, lower bound and digest
// recomputed from scratch, so the server's maintained values are checked
// against an independent computation.

StreamRunResult run_session_stream(const stream::DeltaLog& log,
                                   const StreamRunOptions& options) {
  StreamRunResult result;
  const std::size_t frame_size = std::max<std::size_t>(1, options.frame_size);

  std::optional<stream::ClusterSession> mirror;
  stream::SolveFn reference_solve;
  if (options.check) {
    std::string open_error;
    mirror = stream::ClusterSession::open(log.initial, log.trigger,
                                          &open_error);
    if (!mirror) {
      result.error = "reference open failed: " + open_error;
      return result;
    }
    reference_solve = stream::serial_reference_solver(options.cached);
  }

  SessionClient client(options.endpoint, options.retry, options.metrics,
                       options.io);
  auto fail = [&result](std::string what) {
    result.error = std::move(what);
    return result;
  };
  auto record_mismatch = [&](const std::string& where) {
    ++result.mismatches;
    if (result.error.empty()) {
      result.error = "reply mismatch vs serial reference at " + where;
    }
  };

  SessionOpenRequest open_request;
  open_request.session_id = options.session_id;
  open_request.trigger = log.trigger;
  open_request.instance = log.initial;
  std::string error;
  auto ack = client.open(open_request, &error);
  if (!ack) return fail("open: " + error);
  if (ack->type != MsgType::kSessionOpenOk) {
    return fail("open rejected: " + describe_ack(*ack));
  }
  if (mirror) {
    SessionOpenReply expected;
    expected.session_id = options.session_id;
    expected.makespan = mirror->recomputed_makespan();
    expected.lower_bound = mirror->recomputed_lower_bound();
    expected.state_digest = mirror->recomputed_digest();
    if (encode_session_open_reply(expected) != ack->raw_payload) {
      record_mismatch("open");
    }
  }

  std::uint64_t seq = 1;
  for (std::size_t base = 0; base < log.deltas.size(); base += frame_size) {
    const std::size_t count =
        std::min(frame_size, log.deltas.size() - base);
    SessionDeltaRequest frame;
    frame.session_id = options.session_id;
    frame.first_seq = seq;
    frame.deltas.assign(log.deltas.begin() + static_cast<std::ptrdiff_t>(base),
                        log.deltas.begin() +
                            static_cast<std::ptrdiff_t>(base + count));
    if (options.reconnect_every > 0 && result.frames_sent > 0 &&
        result.frames_sent % options.reconnect_every == 0) {
      client.disconnect();  // next frame reconnects — often to a different
                            // reactor, exercising session forwarding
    }
    ack = client.send_deltas(frame, &error);
    if (!ack) return fail("deltas at seq " + std::to_string(seq) + ": " +
                          error);
    ++result.frames_sent;
    if (ack->type != MsgType::kSessionDeltaOk &&
        ack->type != MsgType::kSessionPlan) {
      return fail("delta frame at seq " + std::to_string(seq) +
                  " rejected: " + describe_ack(*ack));
    }
    if (mirror) {
      SessionDeltaReply expected;
      expected.session_id = options.session_id;
      for (std::size_t i = 0; i < count; ++i) {
        stream::StepResult step = mirror->step(
            frame.deltas[i], seq + i, reference_solve);
        if (step.applied) {
          ++expected.applied;
        } else {
          ++expected.rejected;
          if (expected.first_error.empty()) {
            expected.first_error = step.error;
          }
        }
        for (stream::SessionPlan& plan : step.plans) {
          expected.plans.push_back(std::move(plan));
        }
      }
      expected.last_seq = seq + count - 1;
      expected.makespan = mirror->recomputed_makespan();
      expected.lower_bound = mirror->recomputed_lower_bound();
      expected.state_digest = mirror->recomputed_digest();
      if (session_reply_type(expected) != ack->type ||
          encode_session_delta_reply(expected) != ack->raw_payload) {
        record_mismatch("seq " + std::to_string(seq));
      }
    }
    seq += count;
  }

  ack = client.stats(&error);
  if (!ack) return fail("stats: " + error);
  if (ack->type != MsgType::kSessionStatsOk) {
    return fail("stats rejected: " + describe_ack(*ack));
  }
  {
    std::string decode_error;
    auto stats_reply = decode_session_stats_reply(ack->raw_payload,
                                                  &decode_error);
    if (!stats_reply) return fail("bad stats reply: " + decode_error);
    result.deltas_applied = stats_reply->stats.deltas_applied;
    result.deltas_rejected = stats_reply->stats.deltas_rejected;
    result.plans_emitted = stats_reply->stats.plans_emitted;
    result.moves_total = stats_reply->stats.moves_total;
    result.final_makespan = stats_reply->stats.makespan;
    result.final_digest = stats_reply->stats.digest;
  }
  if (mirror) {
    // The stats comparison is the zero-lost / zero-duplicated delta
    // ledger: applied + rejected counters can only match the mirror if no
    // retry double-applied a frame and no fault dropped one.
    SessionStatsReply expected;
    expected.session_id = options.session_id;
    expected.stats = mirror->recomputed_stats();
    if (encode_session_stats_reply(expected) != ack->raw_payload) {
      record_mismatch("stats");
    }
  }

  ack = client.close_session(&error);
  if (!ack) return fail("close: " + error);
  if (ack->type != MsgType::kSessionCloseOk) {
    return fail("close rejected: " + describe_ack(*ack));
  }
  if (mirror) {
    const stream::SessionStats stats = mirror->stats();
    SessionCloseReply expected;
    expected.session_id = options.session_id;
    expected.deltas_applied = stats.deltas_applied;
    expected.deltas_rejected = stats.deltas_rejected;
    expected.plans_emitted = stats.plans_emitted;
    if (encode_session_close_reply(expected) != ack->raw_payload) {
      record_mismatch("close");
    }
  }

  result.ok = result.error.empty() && result.mismatches == 0;
  return result;
}

}  // namespace lrb::svc
