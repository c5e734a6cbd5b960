// The lrb_serve binary wire protocol (versions lrb::kWireVersion and
// lrb::kWireVersionV2).
//
// Every message is one length-prefixed frame, little-endian throughout:
//
//   offset  size  field
//        0     4  magic "LRBS"
//        4     2  protocol version (1 for the one-shot types below,
//                 2 for the streaming-session types; must match the
//                 message type's level — wire_version_for())
//        6     2  message type (MsgType)
//        8     8  request id (echoed verbatim in the reply)
//       16     4  payload length in bytes
//       20     -  payload
//
// Version-1 request payloads (unchanged since v1, still accepted):
//   Ping   arbitrary bytes (echoed back in Pong)
//   Solve  u8 algo (a solver-registry wire id, docs/solvers.md),
//          u8+u16 reserved, u32 deadline_ms (0 = none, relative
//          to server receipt), i64 k, i64 budget, f64 eps,
//          u32 num_procs, u32 num_jobs, then per job
//          {i64 size, i64 move_cost, u32 initial}
//   Stats  empty
//   Drain  empty
//
// Version-1 reply payloads:
//   Pong     the Ping payload
//   SolveOk  i64 makespan, i64 moves, i64 cost, i64 threshold,
//            u32 num_jobs, u32 assignment[num_jobs]
//   StatsOk  UTF-8 JSON metrics snapshot (obs::Registry::to_json, schema
//            lrb::kStatsSchema)
//   DrainOk  empty (sent once every in-flight request has been answered)
//   Error    u32 code (ErrorCode), u32 text length, UTF-8 text
//
// Version-2 (streaming session) payloads are documented field-by-field in
// docs/streaming.md; the codecs below are their single source of truth:
//   SessionOpen    u64 session_id, trigger config, embedded instance
//   SessionDelta   u64 session_id, u64 first_seq, u32 count, count deltas
//   SessionStats   u64 session_id
//   SessionClose   u64 session_id
//   SessionOpenOk  u64 session_id, i64 makespan, i64 lower_bound,
//                  u64 state_digest
//   SessionDeltaOk / SessionPlan
//                  shared ack header (id, last_seq, applied, rejected,
//                  makespan, lower_bound, digest, first rejection text)
//                  plus the fired plans; the reply type is kSessionPlan
//                  iff at least one plan fired
//   SessionStatsOk / SessionCloseOk   fixed summaries (see the structs)
//
// Determinism: every reply codec is a pure function of its struct, so
// "reply payload byte-identical to the serial reference" is a meaningful
// contract for both one-shot Solves (engine::solve_serial_reference,
// checked by lrb_load --check and tests/test_svc) and streamed sessions
// (stream::replay_serial_reference, checked by lrb_stream --check and
// tests/test_stream_svc).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "solver/spec.h"
#include "stream/session.h"
#include "util/version.h"

namespace lrb::svc {

inline constexpr char kMagic[4] = {'L', 'R', 'B', 'S'};
inline constexpr std::size_t kHeaderSize = 20;
/// Frames advertising a larger payload are rejected with kBadRequest and
/// the connection is closed (a lying header must not make the server
/// buffer unbounded input).
inline constexpr std::uint32_t kMaxPayload = 1u << 26;  // 64 MiB

enum class MsgType : std::uint16_t {
  // Version-1 requests.
  kPing = 1,
  kSolve = 2,
  kStats = 3,
  kDrain = 4,
  // Version-2 (streaming session) requests.
  kSessionOpen = 5,
  kSessionDelta = 6,
  kSessionStats = 7,
  kSessionClose = 8,
  // Version-1 replies.
  kPong = 101,
  kSolveOk = 102,
  kStatsOk = 103,
  kDrainOk = 104,
  // Version-2 replies.
  kSessionOpenOk = 105,
  kSessionDeltaOk = 106,  ///< deltas acked, no trigger fired
  kSessionPlan = 107,     ///< deltas acked AND >= 1 plan fired (move diff)
  kSessionStatsOk = 108,
  kSessionCloseOk = 109,
  // Either version (matches the request it answers).
  kError = 120,
};

/// The protocol level a frame of `type` must carry in its version field:
/// kWireVersionV2 for the streaming-session types, kWireVersion otherwise.
/// (kError answers both levels; it is stamped — and accepted — at either.)
[[nodiscard]] std::uint16_t wire_version_for(MsgType type);

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,       ///< malformed frame or payload; closes the
                         ///< connection for v1 requests (session frames
                         ///< answer the error and keep the stream open)
  kOverloaded = 2,       ///< admission control shed: queue depth at cap
  kDeadlineExceeded = 3, ///< deadline passed before the solve was dispatched
  kDraining = 4,         ///< server is draining; no new work accepted
  kInternal = 5,
  // Version-2 session errors (docs/streaming.md). None of them close the
  // connection: a session error answers one frame, the stream continues.
  kUnknownSession = 6,   ///< no such session id on this server
  kSessionExists = 7,    ///< SessionOpen id already in use (or was closed)
  kBadSequence = 8,      ///< SessionDelta first_seq is neither the next
                         ///< expected seq nor a resend of the last frame
  kSessionClosed = 9,    ///< delta/stats for a session after SessionClose
};

struct FrameHeader {
  std::uint16_t version = 0;
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

enum class DecodeStatus {
  kOk,         ///< *header filled; kHeaderSize bytes consumed by the caller
  kNeedMore,   ///< fewer than kHeaderSize bytes available
  kBadMagic,
  kBadVersion,
  kTooLarge,   ///< payload_len > kMaxPayload
};

/// Parses a frame header from the front of `buf` without consuming it.
[[nodiscard]] DecodeStatus decode_header(std::string_view buf,
                                         FrameHeader* header);

/// Appends a complete frame (header + payload) to `out`.
void encode_frame(std::string& out, MsgType type, std::uint64_t request_id,
                  std::string_view payload);

struct SolveRequest {
  /// Backend + parameters. On the wire: the backend's stable registry wire
  /// id (u8) plus the budget/eps slots of the v1 layout; unknown wire ids
  /// are rejected by solver::is_valid_wire_id at decode time.
  solver::SolverSpec spec;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  std::int64_t k = 0;
  Instance instance;
};

[[nodiscard]] std::string encode_solve_request(const SolveRequest& request);
/// Returns nullopt (and sets *error) on truncated/invalid payloads,
/// including structurally invalid instances (lrb::validate).
[[nodiscard]] std::optional<SolveRequest> decode_solve_request(
    std::string_view payload, std::string* error);

[[nodiscard]] std::string encode_solve_reply_payload(
    const RebalanceResult& result);
/// Appending overload for the serving hot path: encodes into `out`
/// (appended, not cleared), so a reused per-connection/per-worker scratch
/// buffer replaces a fresh std::string per reply frame. The returning
/// overload wraps this one, so the bytes are identical.
void encode_solve_reply_payload(const RebalanceResult& result,
                                std::string& out);
[[nodiscard]] std::optional<RebalanceResult> decode_solve_reply_payload(
    std::string_view payload, std::string* error);

[[nodiscard]] std::string encode_error_payload(ErrorCode code,
                                               std::string_view text);
/// Appending overload (same contract as encode_solve_reply_payload's).
void encode_error_payload(ErrorCode code, std::string_view text,
                          std::string& out);
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string text;
};
[[nodiscard]] std::optional<ErrorReply> decode_error_payload(
    std::string_view payload);

[[nodiscard]] const char* error_code_name(ErrorCode code);

// ---------------------------------------------------------------------------
// Version-2 streaming-session payloads (docs/streaming.md).

/// Hard cap on deltas per SessionDelta frame, far below what the 64 MiB
/// payload cap admits: a lying count must fail fast, and gigantic frames
/// defeat the incremental point of streaming.
inline constexpr std::uint32_t kMaxDeltasPerFrame = 1u << 16;

struct SessionOpenRequest {
  std::uint64_t session_id = 0;
  stream::TriggerConfig trigger;
  Instance instance;
};

[[nodiscard]] std::string encode_session_open_request(
    const SessionOpenRequest& request);
[[nodiscard]] std::optional<SessionOpenRequest> decode_session_open_request(
    std::string_view payload, std::string* error);

struct SessionDeltaRequest {
  std::uint64_t session_id = 0;
  std::uint64_t first_seq = 1;  ///< seq of deltas[0]; consecutive after
  std::vector<stream::Delta> deltas;
};

[[nodiscard]] std::string encode_session_delta_request(
    const SessionDeltaRequest& request);
[[nodiscard]] std::optional<SessionDeltaRequest> decode_session_delta_request(
    std::string_view payload, std::string* error);

/// SessionStats and SessionClose requests: just the session id.
[[nodiscard]] std::string encode_session_id_payload(std::uint64_t session_id);
[[nodiscard]] std::optional<std::uint64_t> decode_session_id_payload(
    std::string_view payload);

struct SessionOpenReply {
  std::uint64_t session_id = 0;
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint64_t state_digest = 0;
};

[[nodiscard]] std::string encode_session_open_reply(
    const SessionOpenReply& reply);
[[nodiscard]] std::optional<SessionOpenReply> decode_session_open_reply(
    std::string_view payload, std::string* error);

/// The ack for one SessionDelta frame. Sent as kSessionDeltaOk when
/// `plans` is empty and kSessionPlan otherwise (session_reply_type).
/// Rejected deltas consume their seq slot without mutating state;
/// `first_error` carries the first rejection text of the frame.
struct SessionDeltaReply {
  std::uint64_t session_id = 0;
  std::uint64_t last_seq = 0;  ///< highest seq consumed so far
  std::uint32_t applied = 0;   ///< deltas of THIS frame that applied
  std::uint32_t rejected = 0;  ///< deltas of THIS frame that were rejected
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint64_t state_digest = 0;
  std::string first_error;
  std::vector<stream::SessionPlan> plans;
};

[[nodiscard]] MsgType session_reply_type(const SessionDeltaReply& reply);
[[nodiscard]] std::string encode_session_delta_reply(
    const SessionDeltaReply& reply);
[[nodiscard]] std::optional<SessionDeltaReply> decode_session_delta_reply(
    std::string_view payload, std::string* error);

struct SessionStatsReply {
  std::uint64_t session_id = 0;
  stream::SessionStats stats;
};

[[nodiscard]] std::string encode_session_stats_reply(
    const SessionStatsReply& reply);
[[nodiscard]] std::optional<SessionStatsReply> decode_session_stats_reply(
    std::string_view payload, std::string* error);

struct SessionCloseReply {
  std::uint64_t session_id = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_rejected = 0;
  std::uint64_t plans_emitted = 0;
};

[[nodiscard]] std::string encode_session_close_reply(
    const SessionCloseReply& reply);
[[nodiscard]] std::optional<SessionCloseReply> decode_session_close_reply(
    std::string_view payload, std::string* error);

// ---------------------------------------------------------------------------
// Which reply answers which request.

/// Checks a reply other than kError (which answers every request): that
/// `reply` is a type the server sends in answer to `request` and that
/// `payload` decodes as that type. Returns what is wrong, or nullopt. One
/// table in wire_answers.cpp holds the pairs; they are not arithmetic
/// (SessionDelta has two answers, and SessionStatsOk and SessionCloseOk
/// are their request + 101).
[[nodiscard]] std::optional<std::string> check_answer(MsgType request,
                                                      MsgType reply,
                                                      std::string_view payload);

}  // namespace lrb::svc
