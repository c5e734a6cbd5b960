#include "svc/session_client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "stream/replay.h"
#include "stream/session.h"
#include "util/rng.h"

namespace lrb::svc {

namespace {

std::string describe(const ErrorReply& server_error) {
  return std::string(error_code_name(server_error.code)) + ": " +
         server_error.text;
}

}  // namespace

std::uint64_t run_session_id(std::uint64_t seed, std::size_t index) {
  static const std::uint64_t nonce =
      (static_cast<std::uint64_t>(getpid()) << 32) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  std::uint64_t state = seed ^ nonce;
  return splitmix64(state) + index;
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

  ResilientClient client(options.endpoint, options.retry, options.metrics,
                         options.io);
  // One request id per logical frame; every retry of the frame reuses it.
  std::uint64_t next_request_id = 1;
  std::string error;
  const auto call = [&](MsgType type, const std::string& payload) {
    return client.call(type, next_request_id++, payload, &error);
  };
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
  auto reply =
      call(MsgType::kSessionOpen, encode_session_open_request(open_request));
  if (!reply) return fail("open: " + error);
  if (reply->server_error) {
    return fail("open rejected: " + describe(*reply->server_error));
  }
  if (mirror) {
    SessionOpenReply expected;
    expected.session_id = options.session_id;
    expected.makespan = mirror->recomputed_makespan();
    expected.lower_bound = mirror->recomputed_lower_bound();
    expected.state_digest = mirror->recomputed_digest();
    if (encode_session_open_reply(expected) != reply->payload) {
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
                            // reactor, which answers it itself
    }
    reply = call(MsgType::kSessionDelta, encode_session_delta_request(frame));
    if (!reply) return fail("deltas at seq " + std::to_string(seq) + ": " +
                            error);
    ++result.frames_sent;
    if (reply->server_error) {
      return fail("delta frame at seq " + std::to_string(seq) +
                  " rejected: " + describe(*reply->server_error));
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
      if (session_reply_type(expected) != reply->type ||
          encode_session_delta_reply(expected) != reply->payload) {
        record_mismatch("seq " + std::to_string(seq));
      }
    }
    seq += count;
  }

  const std::string session_id_payload =
      encode_session_id_payload(options.session_id);
  reply = call(MsgType::kSessionStats, session_id_payload);
  if (!reply) return fail("stats: " + error);
  if (reply->server_error) {
    return fail("stats rejected: " + describe(*reply->server_error));
  }
  {
    // call() only answers with a SessionStatsOk payload that decodes.
    const auto stats_reply = decode_session_stats_reply(reply->payload,
                                                        nullptr);
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
    if (encode_session_stats_reply(expected) != reply->payload) {
      record_mismatch("stats");
    }
  }

  reply = call(MsgType::kSessionClose, session_id_payload);
  if (!reply) return fail("close: " + error);
  if (reply->server_error) {
    return fail("close rejected: " + describe(*reply->server_error));
  }
  if (mirror) {
    const stream::SessionStats stats = mirror->stats();
    SessionCloseReply expected;
    expected.session_id = options.session_id;
    expected.deltas_applied = stats.deltas_applied;
    expected.deltas_rejected = stats.deltas_rejected;
    expected.plans_emitted = stats.plans_emitted;
    if (encode_session_close_reply(expected) != reply->payload) {
      record_mismatch("close");
    }
  }

  result.ok = result.error.empty() && result.mismatches == 0;
  return result;
}

}  // namespace lrb::svc
