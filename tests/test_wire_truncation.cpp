// Truncation table for the LRBS wire protocol — every v1 AND v2
// (streaming-session) frame type, truncated at every byte offset, at two
// levels.
//
//   * Decode level: decode_header on every header prefix must report
//     kNeedMore (never read past the bytes given — ASan/UBSan enforce
//     that), and every strict prefix of each payload must be rejected by
//     its payload decoder. No prefix may silently decode to a different
//     valid value.
//
//   * Socket level: a client that writes a truncated frame and
//     disconnects must not wedge or crash the server, and must not leak
//     the partial frame into the next connection's stream. The sweep
//     covers every offset of the small frames and every header offset
//     plus payload probes of the large Solve frame.
//
// This file runs under ASan/UBSan in CI's sanitize job, which is what
// turns "rejected" into "provably reads in bounds".

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace lrb::svc {
namespace {

SolveRequest sample_solve_request() {
  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(1, 13);
  request.k = 4;
  request.deadline_ms = 5000;
  return request;
}

RebalanceResult sample_result() {
  const SolveRequest request = sample_solve_request();
  return engine::solve_serial_reference(request.spec, request.instance,
                                        request.k);
}

SessionOpenRequest sample_session_open() {
  SessionOpenRequest request;
  request.session_id = 7;
  request.trigger.spec = solver::BackendId::kBestOf;
  request.trigger.delta_count = 8;
  request.trigger.imbalance_ratio = 1.5;
  request.instance = mixed_corpus_instance(2, 13);
  return request;
}

SessionDeltaRequest sample_session_delta() {
  SessionDeltaRequest request;
  request.session_id = 7;
  request.first_seq = 3;
  stream::Delta arrive;
  arrive.kind = stream::DeltaKind::kJobArrive;
  arrive.id = 100;
  arrive.size = 5;
  request.deltas.push_back(arrive);
  stream::Delta depart;
  depart.kind = stream::DeltaKind::kJobDepart;
  depart.id = 0;
  request.deltas.push_back(depart);
  stream::Delta replan;
  replan.kind = stream::DeltaKind::kReplan;
  request.deltas.push_back(replan);
  return request;
}

SessionDeltaReply sample_session_delta_reply(bool with_plan) {
  SessionDeltaReply reply;
  reply.session_id = 7;
  reply.last_seq = 5;
  reply.applied = 2;
  reply.rejected = 1;
  reply.makespan = 17;
  reply.lower_bound = 12;
  reply.state_digest = 0xfeedfacecafebeefull;
  reply.first_error = "unknown job id 42";
  if (with_plan) {
    stream::SessionPlan plan;
    plan.plan_seq = 1;
    plan.triggered_by_seq = 5;
    plan.reason = stream::PlanReason::kImbalance;
    plan.makespan_before = 21;
    plan.makespan_after = 17;
    plan.moves.push_back({3, 0, 1});
    plan.moves.push_back({9, 2, 0});
    reply.plans.push_back(std::move(plan));
  }
  return reply;
}

SessionStatsReply sample_session_stats_reply() {
  SessionStatsReply reply;
  reply.session_id = 7;
  reply.stats.num_procs = 3;
  reply.stats.num_jobs = 11;
  reply.stats.deltas_applied = 40;
  reply.stats.deltas_rejected = 2;
  reply.stats.plans_emitted = 4;
  reply.stats.moves_total = 9;
  reply.stats.last_seq = 42;
  reply.stats.makespan = 17;
  reply.stats.lower_bound = 12;
  reply.stats.digest = 0x1234567890abcdefull;
  return reply;
}

SessionCloseReply sample_session_close_reply() {
  SessionCloseReply reply;
  reply.session_id = 7;
  reply.deltas_applied = 40;
  reply.deltas_rejected = 2;
  reply.plans_emitted = 4;
  return reply;
}

/// Every LRBS frame type (v1 and v2) with a representative payload.
std::vector<std::pair<MsgType, std::string>> all_frame_payloads() {
  return {
      {MsgType::kPing, "ping payload"},
      {MsgType::kSolve, encode_solve_request(sample_solve_request())},
      {MsgType::kStats, ""},
      {MsgType::kDrain, ""},
      {MsgType::kSessionOpen,
       encode_session_open_request(sample_session_open())},
      {MsgType::kSessionDelta,
       encode_session_delta_request(sample_session_delta())},
      {MsgType::kSessionStats, encode_session_id_payload(7)},
      {MsgType::kSessionClose, encode_session_id_payload(7)},
      {MsgType::kPong, "ping payload"},
      {MsgType::kSolveOk, encode_solve_reply_payload(sample_result())},
      {MsgType::kStatsOk, R"({"svc.requests": 1})"},
      {MsgType::kDrainOk, ""},
      {MsgType::kSessionOpenOk,
       encode_session_open_reply({7, 17, 12, 0xabcdefull})},
      {MsgType::kSessionDeltaOk,
       encode_session_delta_reply(sample_session_delta_reply(false))},
      {MsgType::kSessionPlan,
       encode_session_delta_reply(sample_session_delta_reply(true))},
      {MsgType::kSessionStatsOk,
       encode_session_stats_reply(sample_session_stats_reply())},
      {MsgType::kSessionCloseOk,
       encode_session_close_reply(sample_session_close_reply())},
      {MsgType::kError,
       encode_error_payload(ErrorCode::kBadRequest, "truncated")},
  };
}

// ---------------------------------------------------------------------------
// Decode level.
// ---------------------------------------------------------------------------

TEST(WireTruncation, EveryHeaderPrefixNeedsMore) {
  for (const auto& [type, payload] : all_frame_payloads()) {
    std::string frame;
    encode_frame(frame, type, 0x1122334455667788ull, payload);
    ASSERT_GE(frame.size(), kHeaderSize);
    for (std::size_t len = 0; len < kHeaderSize; ++len) {
      FrameHeader header;
      // The prefix is materialized as its own allocation so ASan proves
      // decode_header never touches byte len or beyond.
      const std::string prefix = frame.substr(0, len);
      EXPECT_EQ(decode_header(prefix, &header), DecodeStatus::kNeedMore)
          << "type " << static_cast<int>(type) << " offset " << len;
    }
    FrameHeader header;
    EXPECT_EQ(decode_header(frame, &header), DecodeStatus::kOk);
    EXPECT_EQ(header.type, type);
    EXPECT_EQ(header.payload_len, payload.size());
  }
}

TEST(WireTruncation, EverySolveRequestPrefixIsRejected) {
  const std::string payload = encode_solve_request(sample_solve_request());
  ASSERT_GT(payload.size(), 0u);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_solve_request(prefix, &error))
        << "prefix of length " << len << " decoded";
    EXPECT_FALSE(error.empty()) << "no diagnostic at length " << len;
  }
  std::string error;
  EXPECT_TRUE(decode_solve_request(payload, &error)) << error;
}

TEST(WireTruncation, EverySolveReplyPrefixIsRejected) {
  const std::string payload = encode_solve_reply_payload(sample_result());
  ASSERT_GT(payload.size(), 0u);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_solve_reply_payload(prefix, &error))
        << "prefix of length " << len << " decoded";
  }
  std::string error;
  EXPECT_TRUE(decode_solve_reply_payload(payload, &error)) << error;
}

TEST(WireTruncation, EveryErrorPayloadPrefixIsRejected) {
  const std::string payload =
      encode_error_payload(ErrorCode::kDraining, "drain in progress");
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    EXPECT_FALSE(decode_error_payload(prefix))
        << "prefix of length " << len << " decoded";
  }
  const auto full = decode_error_payload(payload);
  ASSERT_TRUE(full);
  EXPECT_EQ(full->code, ErrorCode::kDraining);
  EXPECT_EQ(full->text, "drain in progress");
}

// Every v2 payload decoder, swept over every strict prefix: no prefix may
// decode, none may read past its input (ASan-enforced in CI's sanitize
// job), and the full payload must round-trip.
TEST(WireTruncationSession, EverySessionOpenRequestPrefixIsRejected) {
  const std::string payload =
      encode_session_open_request(sample_session_open());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_session_open_request(prefix, &error))
        << "prefix of length " << len << " decoded";
    EXPECT_FALSE(error.empty()) << "no diagnostic at length " << len;
  }
  std::string error;
  const auto full = decode_session_open_request(payload, &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->session_id, 7u);
  EXPECT_EQ(full->trigger.delta_count, 8u);
}

TEST(WireTruncationSession, EverySessionDeltaRequestPrefixIsRejected) {
  const std::string payload =
      encode_session_delta_request(sample_session_delta());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_session_delta_request(prefix, &error))
        << "prefix of length " << len << " decoded";
  }
  std::string error;
  const auto full = decode_session_delta_request(payload, &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->first_seq, 3u);
  EXPECT_EQ(full->deltas.size(), 3u);
}

TEST(WireTruncationSession, EverySessionIdPayloadPrefixIsRejected) {
  const std::string payload = encode_session_id_payload(7);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_session_id_payload(payload.substr(0, len)))
        << "prefix of length " << len << " decoded";
  }
  const auto full = decode_session_id_payload(payload);
  ASSERT_TRUE(full);
  EXPECT_EQ(*full, 7u);
}

TEST(WireTruncationSession, EverySessionOpenReplyPrefixIsRejected) {
  const std::string payload =
      encode_session_open_reply({7, 17, 12, 0xabcdefull});
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_session_open_reply(prefix, &error))
        << "prefix of length " << len << " decoded";
  }
  std::string error;
  const auto full = decode_session_open_reply(payload, &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->state_digest, 0xabcdefull);
}

TEST(WireTruncationSession, EverySessionDeltaReplyPrefixIsRejected) {
  // Both shapes: the plain ack and the plan-carrying one (kSessionPlan),
  // whose tail holds variable-length plans and move lists.
  for (const bool with_plan : {false, true}) {
    const std::string payload =
        encode_session_delta_reply(sample_session_delta_reply(with_plan));
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const std::string prefix = payload.substr(0, len);
      std::string error;
      EXPECT_FALSE(decode_session_delta_reply(prefix, &error))
          << (with_plan ? "plan" : "ack") << " prefix of length " << len
          << " decoded";
    }
    std::string error;
    const auto full = decode_session_delta_reply(payload, &error);
    ASSERT_TRUE(full) << error;
    EXPECT_EQ(full->plans.size(), with_plan ? 1u : 0u);
    EXPECT_EQ(full->first_error, "unknown job id 42");
  }
}

TEST(WireTruncationSession, EverySessionStatsReplyPrefixIsRejected) {
  const std::string payload =
      encode_session_stats_reply(sample_session_stats_reply());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_session_stats_reply(prefix, &error))
        << "prefix of length " << len << " decoded";
  }
  std::string error;
  const auto full = decode_session_stats_reply(payload, &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->stats.last_seq, 42u);
}

TEST(WireTruncationSession, EverySessionCloseReplyPrefixIsRejected) {
  const std::string payload =
      encode_session_close_reply(sample_session_close_reply());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    std::string error;
    EXPECT_FALSE(decode_session_close_reply(prefix, &error))
        << "prefix of length " << len << " decoded";
  }
  std::string error;
  const auto full = decode_session_close_reply(payload, &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->plans_emitted, 4u);
}

// ---------------------------------------------------------------------------
// Socket level.
// ---------------------------------------------------------------------------

std::string trunc_socket_path() {
  static int counter = 0;
  return "/tmp/lrb_trunc_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

class TruncServer {
 public:
  TruncServer() {
    path_ = trunc_socket_path();
    ServerOptions options;
    options.unix_path = path_;
    options.metrics = &registry_;
    options.engine.workers = 2;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~TruncServer() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
    unlink(path_.c_str());
  }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

/// Writes `bytes` then disconnects; then proves the server still answers a
/// well-formed Ping on a fresh connection (nothing wedged, nothing leaked
/// into another connection's stream).
void truncate_then_ping(TruncServer& ts, std::string_view bytes,
                        std::uint64_t probe_id) {
  std::string error;
  {
    auto torn = Client::connect(Endpoint::unix_socket(ts.path()), &error);
    ASSERT_TRUE(torn) << error;
    ASSERT_TRUE(torn->send_bytes(bytes, &error)) << error;
  }  // abrupt disconnect mid-frame
  auto probe = Client::connect(Endpoint::unix_socket(ts.path()), &error);
  ASSERT_TRUE(probe) << error;
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(probe->call(MsgType::kPing, probe_id, "probe", &header,
                          &payload, &error))
      << error;
  EXPECT_EQ(header.type, MsgType::kPong);
  EXPECT_EQ(header.request_id, probe_id);
}

TEST(WireTruncation, ServerSurvivesSmallFramesTruncatedAtEveryOffset) {
  TruncServer ts;
  std::uint64_t probe_id = 1;
  for (const auto& [type, payload] : all_frame_payloads()) {
    std::string frame;
    encode_frame(frame, type, 7, payload);
    if (frame.size() > 96) continue;  // the Solve/SolveOk sweep is below
    for (std::size_t len = 0; len < frame.size(); ++len) {
      truncate_then_ping(ts, std::string_view(frame).substr(0, len),
                         probe_id++);
      if (HasFatalFailure()) return;
    }
  }
}

/// Every header boundary, then probes through the payload: the decoder
/// state machine only changes shape at the header/payload transition, so
/// stepping the payload in strides keeps the sweep fast while still
/// covering both sides of every interesting boundary.
void sweep_truncated_frame(TruncServer& ts, std::string_view frame,
                           std::uint64_t first_probe_id) {
  std::vector<std::size_t> offsets;
  for (std::size_t len = 0; len <= kHeaderSize + 8; ++len) {
    offsets.push_back(len);
  }
  for (std::size_t len = kHeaderSize + 8; len < frame.size(); len += 7) {
    offsets.push_back(len);
  }
  offsets.push_back(frame.size() - 1);
  std::uint64_t probe_id = first_probe_id;
  for (const std::size_t len : offsets) {
    truncate_then_ping(ts, frame.substr(0, len), probe_id++);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(WireTruncation, ServerSurvivesTruncatedSolveFrames) {
  TruncServer ts;
  std::string frame;
  encode_frame(frame, MsgType::kSolve, 7,
               encode_solve_request(sample_solve_request()));
  sweep_truncated_frame(ts, frame, 1000);
}

TEST(WireTruncationSession, ServerSurvivesTruncatedSessionFrames) {
  // The two big v2 request frames (the small SessionStats/SessionClose
  // frames are covered by the every-offset sweep above).
  TruncServer ts;
  std::string open_frame;
  encode_frame(open_frame, MsgType::kSessionOpen, 7,
               encode_session_open_request(sample_session_open()));
  sweep_truncated_frame(ts, open_frame, 2000);
  if (HasFatalFailure()) return;
  std::string delta_frame;
  encode_frame(delta_frame, MsgType::kSessionDelta, 8,
               encode_session_delta_request(sample_session_delta()));
  sweep_truncated_frame(ts, delta_frame, 3000);
}

}  // namespace
}  // namespace lrb::svc
