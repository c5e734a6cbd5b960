#include "svc/session_table.h"

#include <chrono>
#include <string>
#include <utility>

#include "cache/canonical.h"

namespace lrb::svc {

namespace {

std::uint64_t payload_digest(std::string_view payload) {
  const cache::Fingerprint fp = cache::fingerprint(payload);
  return fp.hi ^ fp.lo;
}

std::uint64_t peek_session_id(std::string_view payload) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(payload[i]))
         << (8 * i);
  }
  return v;
}

MsgType refuse(ErrorCode code, std::string_view text, std::string& reply) {
  encode_error_payload(code, text, reply);
  return MsgType::kError;
}

}  // namespace

SessionTable::SessionTable(engine::BatchSolver& solver,
                           std::size_t max_sessions, obs::Registry& metrics)
    : solver_(solver),
      max_sessions_(max_sessions),
      m_bad_requests_(metrics.counter("svc.bad_requests")),
      m_shed_overloaded_(metrics.counter("svc.shed_overloaded")),
      m_sessions_open_(metrics.gauge("stream.sessions_open")),
      m_sessions_opened_(metrics.counter("stream.sessions_opened")),
      m_sessions_closed_(metrics.counter("stream.sessions_closed")),
      m_deltas_applied_(metrics.counter("stream.deltas_applied")),
      m_deltas_rejected_(metrics.counter("stream.deltas_rejected")),
      m_plans_emitted_(metrics.counter("stream.plans_emitted")),
      m_dup_frames_resent_(metrics.counter("stream.dup_frames_resent")),
      m_moves_per_plan_(metrics.histogram("stream.moves_per_plan")),
      m_replan_latency_ms_(metrics.histogram("stream.replan_latency_ms")) {}

SessionTable::Record* SessionTable::find(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

MsgType SessionTable::handle(MsgType type, std::string_view payload,
                             std::string& reply, engine::Scratch& arena) {
  reply.clear();
  if (payload.size() < 8) {
    return bad_request("session payload shorter than the session id", reply);
  }
  const std::uint64_t id = peek_session_id(payload);
  if (type == MsgType::kSessionOpen) return open(id, payload, reply);

  Record* record = find(id);
  if (record == nullptr) {
    return refuse(ErrorCode::kUnknownSession, "unknown session id", reply);
  }
  std::lock_guard lock(record->mutex);
  if (record->live == nullptr) {
    if (type != MsgType::kSessionClose) {
      return refuse(ErrorCode::kSessionClosed, "session is closed", reply);
    }
    // A repeated close gets the tombstone's ack.
    m_dup_frames_resent_.add(1);
    reply = record->close_reply;
    return MsgType::kSessionCloseOk;
  }
  switch (type) {
    case MsgType::kSessionDelta:
      return delta(*record->live, payload, reply, arena);
    case MsgType::kSessionStats: {
      SessionStatsReply stats;
      stats.session_id = id;
      stats.stats = record->live->session.stats();
      reply = encode_session_stats_reply(stats);
      return MsgType::kSessionStatsOk;
    }
    case MsgType::kSessionClose:
      return close(*record, id, reply);
    default:
      return refuse(ErrorCode::kInternal, "unexpected session frame", reply);
  }
}

MsgType SessionTable::open(std::uint64_t id, std::string_view payload,
                           std::string& reply) {
  if (Record* record = find(id)) return reopen(*record, payload, reply);
  {
    std::lock_guard lock(mutex_);
    if (open_ >= max_sessions_) return overloaded(reply);
  }
  std::string error;
  auto request = decode_session_open_request(payload, &error);
  if (!request) return bad_request(error, reply);
  auto session = stream::ClusterSession::open(request->instance,
                                              request->trigger, &error);
  if (!session) return bad_request(error, reply);

  auto live = std::make_unique<Live>();
  live->session = std::move(*session);
  live->open_payload_digest = payload_digest(payload);
  SessionOpenReply ack;
  ack.session_id = id;
  ack.makespan = live->session.makespan();
  ack.lower_bound = live->session.lower_bound();
  ack.state_digest = live->session.digest();
  live->last_reply_payload = encode_session_open_reply(ack);

  // Insert only now, so a failed open leaves nothing behind. Another open
  // of this id may have been inserted meanwhile; that one stands.
  Record* existing = nullptr;
  {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(id);
    if (it != records_.end()) {
      existing = &it->second;
    } else if (open_ < max_sessions_) {
      reply = live->last_reply_payload;
      records_[id].live = std::move(live);
      ++open_;
    }
  }
  if (existing != nullptr) return reopen(*existing, payload, reply);
  if (live != nullptr) return overloaded(reply);  // filled up meanwhile
  m_sessions_opened_.add(1);
  m_sessions_open_.add(1);
  return MsgType::kSessionOpenOk;
}

MsgType SessionTable::reopen(Record& record, std::string_view payload,
                             std::string& reply) {
  std::lock_guard lock(record.mutex);
  if (record.live == nullptr) {
    return refuse(ErrorCode::kSessionExists,
                  "session id was already used and closed", reply);
  }
  std::string error;
  if (!decode_session_open_request(payload, &error)) {
    return bad_request(error, reply);
  }
  // A retried SessionOpen whose ack was lost is answered byte-identically,
  // but only while the session is still pristine AND the payload is the
  // same bytes; anything else is a genuine id collision. Pristine means no
  // delta frame answered yet: an empty frame leaves last_seq at 0 but
  // replaces the stored reply with its delta ack.
  const Live& live = *record.live;
  if (live.last_reply_type == MsgType::kSessionOpenOk &&
      live.open_payload_digest == payload_digest(payload)) {
    m_dup_frames_resent_.add(1);
    reply = live.last_reply_payload;
    return MsgType::kSessionOpenOk;
  }
  return refuse(ErrorCode::kSessionExists, "session id already in use",
                reply);
}

MsgType SessionTable::delta(Live& live, std::string_view payload,
                            std::string& reply, engine::Scratch& arena) {
  std::string error;
  auto request = decode_session_delta_request(payload, &error);
  if (!request) return bad_request(error, reply);
  const std::uint32_t count =
      static_cast<std::uint32_t>(request->deltas.size());
  // Exactly-once deltas under retries: an exact resend of the last applied
  // frame gets the stored reply, byte-identical; any other overlap is a
  // sequencing bug on the client side.
  if (count > 0 && request->first_seq == live.last_frame_first_seq &&
      count == live.last_frame_count &&
      live.last_seq == request->first_seq + count - 1) {
    m_dup_frames_resent_.add(1);
    reply = live.last_reply_payload;
    return live.last_reply_type;
  }
  if (request->first_seq != live.last_seq + 1) {
    return refuse(ErrorCode::kBadSequence,
                  "first_seq " + std::to_string(request->first_seq) +
                      " != expected " + std::to_string(live.last_seq + 1),
                  reply);
  }

  const auto solve = [this, &arena](const Instance& instance, std::int64_t k,
                                    const solver::SolverSpec& spec) {
    engine::BatchSolver::TickItem item;
    item.instance = &instance;
    item.k = k;
    item.spec = spec;
    const auto started = std::chrono::steady_clock::now();
    auto result = solver_.solve_item(item, &arena);
    m_replan_latency_ms_.record(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - started)
                                    .count());
    return result;
  };

  SessionDeltaReply ack;
  ack.session_id = request->session_id;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t seq = request->first_seq + i;
    stream::StepResult step = live.session.step(request->deltas[i], seq, solve);
    if (step.applied) {
      ++ack.applied;
    } else {
      ++ack.rejected;
      if (ack.first_error.empty()) ack.first_error = step.error;
    }
    for (stream::SessionPlan& plan : step.plans) {
      m_plans_emitted_.add(1);
      m_moves_per_plan_.record(static_cast<double>(plan.moves.size()));
      ack.plans.push_back(std::move(plan));
    }
  }
  m_deltas_applied_.add(ack.applied);
  m_deltas_rejected_.add(ack.rejected);

  if (count > 0) live.last_seq = request->first_seq + count - 1;
  ack.last_seq = live.last_seq;
  ack.makespan = live.session.makespan();
  ack.lower_bound = live.session.lower_bound();
  ack.state_digest = live.session.digest();
  live.last_frame_first_seq = request->first_seq;
  live.last_frame_count = count;
  live.last_reply_type = session_reply_type(ack);
  live.last_reply_payload = encode_session_delta_reply(ack);
  reply = live.last_reply_payload;
  return live.last_reply_type;
}

MsgType SessionTable::close(Record& record, std::uint64_t id,
                            std::string& reply) {
  const stream::SessionStats stats = record.live->session.stats();
  SessionCloseReply ack;
  ack.session_id = id;
  ack.deltas_applied = stats.deltas_applied;
  ack.deltas_rejected = stats.deltas_rejected;
  ack.plans_emitted = stats.plans_emitted;
  record.close_reply = encode_session_close_reply(ack);
  record.live.reset();
  {
    std::lock_guard lock(mutex_);
    --open_;
  }
  m_sessions_closed_.add(1);
  m_sessions_open_.add(-1);
  reply = record.close_reply;
  return MsgType::kSessionCloseOk;
}

MsgType SessionTable::bad_request(std::string_view text, std::string& reply) {
  m_bad_requests_.add(1);
  return refuse(ErrorCode::kBadRequest, text, reply);
}

MsgType SessionTable::overloaded(std::string& reply) {
  m_shed_overloaded_.add(1);
  return refuse(ErrorCode::kOverloaded, "session table at capacity", reply);
}

}  // namespace lrb::svc
