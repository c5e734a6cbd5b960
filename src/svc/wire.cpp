#include "svc/wire.h"

#include <bit>
#include <cstring>

#include "solver/registry.h"

namespace lrb::svc {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over a payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == data_.size(); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(take(8)); }
  double f64() { return std::bit_cast<double>(take(8)); }

 private:
  std::uint64_t take(std::size_t bytes) {
    if (!ok_ || data_.size() - pos_ < bytes) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::uint16_t wire_version_for(MsgType type) {
  switch (type) {
    case MsgType::kSessionOpen:
    case MsgType::kSessionDelta:
    case MsgType::kSessionStats:
    case MsgType::kSessionClose:
    case MsgType::kSessionOpenOk:
    case MsgType::kSessionDeltaOk:
    case MsgType::kSessionPlan:
    case MsgType::kSessionStatsOk:
    case MsgType::kSessionCloseOk:
      return kWireVersionV2;
    default:
      return kWireVersion;
  }
}

DecodeStatus decode_header(std::string_view buf, FrameHeader* header) {
  if (buf.size() < kHeaderSize) return DecodeStatus::kNeedMore;
  if (std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0) {
    return DecodeStatus::kBadMagic;
  }
  Reader r(buf.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  header->version = r.u16();
  header->type = static_cast<MsgType>(r.u16());
  header->request_id = r.u64();
  header->payload_len = r.u32();
  if (header->version != kWireVersion && header->version != kWireVersionV2) {
    return DecodeStatus::kBadVersion;
  }
  // A frame's version must match its type's protocol level: a v1 stamp on
  // a session frame (or v2 on a one-shot) is a framing bug, not a payload
  // problem, and is rejected before any payload is read. kError answers
  // requests of both levels and is exempt.
  if (header->type != MsgType::kError &&
      header->version != wire_version_for(header->type)) {
    return DecodeStatus::kBadVersion;
  }
  if (header->payload_len > kMaxPayload) return DecodeStatus::kTooLarge;
  return DecodeStatus::kOk;
}

void encode_frame(std::string& out, MsgType type, std::uint64_t request_id,
                  std::string_view payload) {
  out.reserve(out.size() + kHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u16(out, wire_version_for(type));
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

std::string encode_solve_request(const SolveRequest& request) {
  std::string out;
  const std::size_t n = request.instance.num_jobs();
  out.reserve(40 + n * 20);
  out.push_back(
      static_cast<char>(solver::descriptor(request.spec.backend).wire_id));
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, request.deadline_ms);
  put_i64(out, request.k);
  put_i64(out, request.spec.params.budget);
  put_f64(out, request.spec.params.eps);
  put_u32(out, request.instance.num_procs);
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t j = 0; j < n; ++j) {
    put_i64(out, request.instance.sizes[j]);
    put_i64(out, request.instance.move_costs[j]);
    put_u32(out, request.instance.initial[j]);
  }
  return out;
}

std::optional<SolveRequest> decode_solve_request(std::string_view payload,
                                                 std::string* error) {
  auto fail = [&](const char* what) -> std::optional<SolveRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Reader r(payload);
  SolveRequest request;
  const std::uint8_t algo = r.u8();
  r.u8();
  r.u16();
  request.deadline_ms = r.u32();
  request.k = r.i64();
  request.spec.params.budget = r.i64();
  request.spec.params.eps = r.f64();
  request.instance.num_procs = r.u32();
  const std::uint32_t num_jobs = r.u32();
  if (!r.ok()) return fail("truncated solve header");
  const solver::BackendDescriptor* backend = solver::backend_by_wire_id(algo);
  if (backend == nullptr) return fail("unknown algo id");
  request.spec.backend = backend->id;
  // Only the knobs the backend consumes are checked: the PTAS and
  // cost-PARTITION assert on out-of-range ones, while v1 clients may send
  // anything in the knobs a backend ignores.
  if (const auto problem = solver::validate_spec(
          {backend->id, solver::normalized_params(request.spec)})) {
    return fail(problem->c_str());
  }
  // The remaining payload must hold exactly num_jobs records; checking up
  // front turns a lying count into one error instead of 3n reader checks.
  if (payload.size() != 40 + std::size_t{num_jobs} * 20) {
    return fail("job count does not match payload length");
  }
  request.instance.sizes.resize(num_jobs);
  request.instance.move_costs.resize(num_jobs);
  request.instance.initial.resize(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    request.instance.sizes[j] = r.i64();
    request.instance.move_costs[j] = r.i64();
    request.instance.initial[j] = r.u32();
  }
  if (!r.done()) return fail("truncated job records");
  if (request.k < 0) return fail("negative move budget");
  if (const auto problem = validate(request.instance)) {
    return fail(problem->c_str());
  }
  return request;
}

void encode_solve_reply_payload(const RebalanceResult& result,
                                std::string& out) {
  out.reserve(out.size() + 36 + result.assignment.size() * 4);
  put_i64(out, result.makespan);
  put_i64(out, result.moves);
  put_i64(out, result.cost);
  put_i64(out, result.threshold);
  put_u32(out, static_cast<std::uint32_t>(result.assignment.size()));
  for (const ProcId p : result.assignment) put_u32(out, p);
}

std::string encode_solve_reply_payload(const RebalanceResult& result) {
  std::string out;
  encode_solve_reply_payload(result, out);
  return out;
}

std::optional<RebalanceResult> decode_solve_reply_payload(
    std::string_view payload, std::string* error) {
  auto fail = [&](const char* what) -> std::optional<RebalanceResult> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Reader r(payload);
  RebalanceResult result;
  result.makespan = r.i64();
  result.moves = r.i64();
  result.cost = r.i64();
  result.threshold = r.i64();
  const std::uint32_t num_jobs = r.u32();
  if (!r.ok()) return fail("truncated solve reply header");
  if (payload.size() != 36 + std::size_t{num_jobs} * 4) {
    return fail("assignment length does not match payload length");
  }
  result.assignment.resize(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) result.assignment[j] = r.u32();
  if (!r.done()) return fail("truncated assignment");
  return result;
}

void encode_error_payload(ErrorCode code, std::string_view text,
                          std::string& out) {
  out.reserve(out.size() + 8 + text.size());
  put_u32(out, static_cast<std::uint32_t>(code));
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

std::string encode_error_payload(ErrorCode code, std::string_view text) {
  std::string out;
  encode_error_payload(code, text, out);
  return out;
}

std::optional<ErrorReply> decode_error_payload(std::string_view payload) {
  Reader r(payload);
  ErrorReply reply;
  reply.code = static_cast<ErrorCode>(r.u32());
  const std::uint32_t len = r.u32();
  if (!r.ok() || payload.size() != 8 + std::size_t{len}) return std::nullopt;
  reply.text.assign(payload.substr(8));
  return reply;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kDraining:
      return "draining";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kUnknownSession:
      return "unknown-session";
    case ErrorCode::kSessionExists:
      return "session-exists";
    case ErrorCode::kBadSequence:
      return "bad-sequence";
    case ErrorCode::kSessionClosed:
      return "session-closed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Version-2 streaming-session codecs. Layouts in docs/streaming.md; every
// encoder is a pure function of its struct so replies are byte-comparable
// across the concurrent server and the serial replay reference.

std::string encode_session_open_request(const SessionOpenRequest& request) {
  std::string out;
  const std::size_t n = request.instance.num_jobs();
  out.reserve(64 + n * 20);
  put_u64(out, request.session_id);
  const stream::TriggerConfig& trigger = request.trigger;
  out.push_back(
      static_cast<char>(solver::descriptor(trigger.spec.backend).wire_id));
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, trigger.move_budget);
  put_f64(out, trigger.move_frac);
  put_f64(out, trigger.imbalance_ratio);
  put_u32(out, trigger.delta_count);
  put_u32(out, 0);
  put_i64(out, trigger.spec.params.budget);
  put_f64(out, trigger.spec.params.eps);
  put_u32(out, request.instance.num_procs);
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t j = 0; j < n; ++j) {
    put_i64(out, request.instance.sizes[j]);
    put_i64(out, request.instance.move_costs[j]);
    put_u32(out, request.instance.initial[j]);
  }
  return out;
}

std::optional<SessionOpenRequest> decode_session_open_request(
    std::string_view payload, std::string* error) {
  auto fail = [&](const char* what) -> std::optional<SessionOpenRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Reader r(payload);
  SessionOpenRequest request;
  request.session_id = r.u64();
  const std::uint8_t algo = r.u8();
  r.u8();
  r.u16();
  request.trigger.move_budget = r.u32();
  request.trigger.move_frac = r.f64();
  request.trigger.imbalance_ratio = r.f64();
  request.trigger.delta_count = r.u32();
  r.u32();
  request.trigger.spec.params.budget = r.i64();
  request.trigger.spec.params.eps = r.f64();
  request.instance.num_procs = r.u32();
  const std::uint32_t num_jobs = r.u32();
  if (!r.ok()) return fail("truncated session open header");
  const solver::BackendDescriptor* backend = solver::backend_by_wire_id(algo);
  if (backend == nullptr) return fail("unknown algo id");
  request.trigger.spec.backend = backend->id;
  if (payload.size() != 64 + std::size_t{num_jobs} * 20) {
    return fail("job count does not match payload length");
  }
  request.instance.sizes.resize(num_jobs);
  request.instance.move_costs.resize(num_jobs);
  request.instance.initial.resize(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    request.instance.sizes[j] = r.i64();
    request.instance.move_costs[j] = r.i64();
    request.instance.initial[j] = r.u32();
  }
  if (!r.done()) return fail("truncated job records");
  if (const auto problem = stream::validate_trigger(request.trigger)) {
    if (error != nullptr) *error = *problem;
    return std::nullopt;
  }
  if (const auto problem = validate(request.instance)) {
    return fail(problem->c_str());
  }
  return request;
}

std::string encode_session_delta_request(const SessionDeltaRequest& request) {
  std::string out;
  out.reserve(20 + request.deltas.size() * 40);
  put_u64(out, request.session_id);
  put_u64(out, request.first_seq);
  put_u32(out, static_cast<std::uint32_t>(request.deltas.size()));
  for (const stream::Delta& delta : request.deltas) {
    out.push_back(static_cast<char>(delta.kind));
    out.push_back(0);
    put_u16(out, 0);
    put_u32(out, 0);
    put_u64(out, delta.id);
    put_i64(out, delta.size);
    put_i64(out, delta.move_cost);
    put_u64(out, delta.proc);
  }
  return out;
}

std::optional<SessionDeltaRequest> decode_session_delta_request(
    std::string_view payload, std::string* error) {
  auto fail = [&](const char* what) -> std::optional<SessionDeltaRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Reader r(payload);
  SessionDeltaRequest request;
  request.session_id = r.u64();
  request.first_seq = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return fail("truncated session delta header");
  if (request.first_seq == 0) return fail("delta seq numbers start at 1");
  if (count > kMaxDeltasPerFrame) {
    return fail("too many deltas in one frame");
  }
  if (payload.size() != 20 + std::size_t{count} * 40) {
    return fail("delta count does not match payload length");
  }
  request.deltas.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    stream::Delta& delta = request.deltas[i];
    const std::uint8_t kind = r.u8();
    r.u8();
    r.u16();
    r.u32();
    delta.id = r.u64();
    delta.size = r.i64();
    delta.move_cost = r.i64();
    delta.proc = r.u64();
    if (kind < static_cast<std::uint8_t>(stream::DeltaKind::kJobArrive) ||
        kind > static_cast<std::uint8_t>(stream::DeltaKind::kReplan)) {
      return fail("unknown delta kind");
    }
    delta.kind = static_cast<stream::DeltaKind>(kind);
  }
  if (!r.done()) return fail("truncated delta records");
  return request;
}

std::string encode_session_id_payload(std::uint64_t session_id) {
  std::string out;
  put_u64(out, session_id);
  return out;
}

std::optional<std::uint64_t> decode_session_id_payload(
    std::string_view payload) {
  if (payload.size() != 8) return std::nullopt;
  Reader r(payload);
  return r.u64();
}

std::string encode_session_open_reply(const SessionOpenReply& reply) {
  std::string out;
  out.reserve(32);
  put_u64(out, reply.session_id);
  put_i64(out, reply.makespan);
  put_i64(out, reply.lower_bound);
  put_u64(out, reply.state_digest);
  return out;
}

std::optional<SessionOpenReply> decode_session_open_reply(
    std::string_view payload, std::string* error) {
  if (payload.size() != 32) {
    if (error != nullptr) *error = "bad session open reply length";
    return std::nullopt;
  }
  Reader r(payload);
  SessionOpenReply reply;
  reply.session_id = r.u64();
  reply.makespan = r.i64();
  reply.lower_bound = r.i64();
  reply.state_digest = r.u64();
  return reply;
}

MsgType session_reply_type(const SessionDeltaReply& reply) {
  return reply.plans.empty() ? MsgType::kSessionDeltaOk
                             : MsgType::kSessionPlan;
}

std::string encode_session_delta_reply(const SessionDeltaReply& reply) {
  std::string out;
  out.reserve(56 + reply.first_error.size() + reply.plans.size() * 64);
  put_u64(out, reply.session_id);
  put_u64(out, reply.last_seq);
  put_u32(out, reply.applied);
  put_u32(out, reply.rejected);
  put_i64(out, reply.makespan);
  put_i64(out, reply.lower_bound);
  put_u64(out, reply.state_digest);
  put_u32(out, static_cast<std::uint32_t>(reply.first_error.size()));
  out.append(reply.first_error);
  put_u32(out, static_cast<std::uint32_t>(reply.plans.size()));
  for (const stream::SessionPlan& plan : reply.plans) {
    put_u64(out, plan.plan_seq);
    put_u64(out, plan.triggered_by_seq);
    out.push_back(static_cast<char>(plan.reason));
    out.push_back(0);
    put_u16(out, 0);
    put_u32(out, static_cast<std::uint32_t>(plan.moves.size()));
    put_i64(out, plan.makespan_before);
    put_i64(out, plan.makespan_after);
    for (const stream::PlanMove& move : plan.moves) {
      put_u64(out, move.job);
      put_u64(out, move.from);
      put_u64(out, move.to);
    }
  }
  return out;
}

std::optional<SessionDeltaReply> decode_session_delta_reply(
    std::string_view payload, std::string* error) {
  auto fail = [&](const char* what) -> std::optional<SessionDeltaReply> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Reader r(payload);
  SessionDeltaReply reply;
  reply.session_id = r.u64();
  reply.last_seq = r.u64();
  reply.applied = r.u32();
  reply.rejected = r.u32();
  reply.makespan = r.i64();
  reply.lower_bound = r.i64();
  reply.state_digest = r.u64();
  const std::uint32_t error_len = r.u32();
  if (!r.ok()) return fail("truncated session delta reply header");
  if (payload.size() < 52 + std::size_t{error_len} + 4) {
    return fail("truncated rejection text");
  }
  reply.first_error.assign(payload.substr(52, error_len));
  Reader rest(payload.substr(52 + error_len));
  const std::uint32_t plan_count = rest.u32();
  if (!rest.ok()) return fail("truncated plan count");
  reply.plans.resize(plan_count);
  for (std::uint32_t p = 0; p < plan_count; ++p) {
    stream::SessionPlan& plan = reply.plans[p];
    plan.plan_seq = rest.u64();
    plan.triggered_by_seq = rest.u64();
    const std::uint8_t reason = rest.u8();
    rest.u8();
    rest.u16();
    const std::uint32_t move_count = rest.u32();
    plan.makespan_before = rest.i64();
    plan.makespan_after = rest.i64();
    if (!rest.ok()) return fail("truncated plan header");
    if (reason < static_cast<std::uint8_t>(stream::PlanReason::kImbalance) ||
        reason > static_cast<std::uint8_t>(stream::PlanReason::kDrain)) {
      return fail("unknown plan reason");
    }
    plan.reason = static_cast<stream::PlanReason>(reason);
    plan.moves.resize(move_count);
    for (std::uint32_t m = 0; m < move_count; ++m) {
      plan.moves[m].job = rest.u64();
      plan.moves[m].from = rest.u64();
      plan.moves[m].to = rest.u64();
    }
    if (!rest.ok()) return fail("truncated plan moves");
  }
  if (!rest.done()) return fail("trailing bytes after plans");
  return reply;
}

std::string encode_session_stats_reply(const SessionStatsReply& reply) {
  std::string out;
  out.reserve(88);
  put_u64(out, reply.session_id);
  put_u64(out, reply.stats.num_procs);
  put_u64(out, reply.stats.num_jobs);
  put_u64(out, reply.stats.deltas_applied);
  put_u64(out, reply.stats.deltas_rejected);
  put_u64(out, reply.stats.plans_emitted);
  put_u64(out, reply.stats.moves_total);
  put_u64(out, reply.stats.last_seq);
  put_i64(out, reply.stats.makespan);
  put_i64(out, reply.stats.lower_bound);
  put_u64(out, reply.stats.digest);
  return out;
}

std::optional<SessionStatsReply> decode_session_stats_reply(
    std::string_view payload, std::string* error) {
  if (payload.size() != 88) {
    if (error != nullptr) *error = "bad session stats reply length";
    return std::nullopt;
  }
  Reader r(payload);
  SessionStatsReply reply;
  reply.session_id = r.u64();
  reply.stats.num_procs = r.u64();
  reply.stats.num_jobs = r.u64();
  reply.stats.deltas_applied = r.u64();
  reply.stats.deltas_rejected = r.u64();
  reply.stats.plans_emitted = r.u64();
  reply.stats.moves_total = r.u64();
  reply.stats.last_seq = r.u64();
  reply.stats.makespan = r.i64();
  reply.stats.lower_bound = r.i64();
  reply.stats.digest = r.u64();
  return reply;
}

std::string encode_session_close_reply(const SessionCloseReply& reply) {
  std::string out;
  out.reserve(32);
  put_u64(out, reply.session_id);
  put_u64(out, reply.deltas_applied);
  put_u64(out, reply.deltas_rejected);
  put_u64(out, reply.plans_emitted);
  return out;
}

std::optional<SessionCloseReply> decode_session_close_reply(
    std::string_view payload, std::string* error) {
  if (payload.size() != 32) {
    if (error != nullptr) *error = "bad session close reply length";
    return std::nullopt;
  }
  Reader r(payload);
  SessionCloseReply reply;
  reply.session_id = r.u64();
  reply.deltas_applied = r.u64();
  reply.deltas_rejected = r.u64();
  reply.plans_emitted = r.u64();
  return reply;
}

}  // namespace lrb::svc
