// End-to-end tests for streaming sessions on the sharded server
// (docs/streaming.md): the byte-identity contract against the serial
// replay reference across reactors and reconnects, one session driven from
// several reactors at once, exactly-once delta dedup, and every session
// error path — all of which must answer the offending frame and leave the
// connection open.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "obs/metrics.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/trace.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "svc/wire.h"

namespace lrb::svc {
namespace {

std::string stream_socket_path() {
  static int counter = 0;
  return "/tmp/lrb_stream_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// In-process server with its own registry, so tests can assert on the
/// stream.* metrics after draining.
class StreamServer {
 public:
  explicit StreamServer(std::size_t reactors, std::size_t cache_bytes = 0) {
    path_ = stream_socket_path();
    ServerOptions options;
    options.unix_path = path_;
    options.metrics = &registry_;
    options.reactors = reactors;
    options.engine_workers = 2;
    options.engine.workers = 2;
    options.engine.cache_bytes = cache_bytes;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~StreamServer() { drain(); }

  void drain() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
    unlink(path_.c_str());
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }

 private:
  std::string path_;
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

stream::DeltaLog sample_log(std::uint64_t seed, std::size_t events) {
  stream::TriggerConfig trigger;
  trigger.spec = solver::BackendId::kBestOf;
  trigger.imbalance_ratio = 1.5;
  trigger.delta_count = 12;
  stream::TraceOptions options;
  options.num_events = events;
  options.departure_fraction = 0.4;
  return stream::delta_log_from_trace(
      mixed_corpus_instance(0, seed), stream::random_trace(options, seed),
      trigger);
}

/// Raw call helper: sends one session frame and returns the reply.
struct RawReply {
  MsgType type = MsgType::kError;
  std::string payload;
};

RawReply raw_call(Client& client, MsgType type, std::uint64_t request_id,
                  const std::string& payload) {
  RawReply reply;
  FrameHeader header;
  std::string error;
  EXPECT_TRUE(client.call(type, request_id, payload, &header, &reply.payload,
                          &error))
      << error;
  reply.type = header.type;
  return reply;
}

ErrorCode error_code_of(const RawReply& reply) {
  EXPECT_EQ(reply.type, MsgType::kError);
  const auto decoded = decode_error_payload(reply.payload);
  EXPECT_TRUE(decoded);
  return decoded ? decoded->code : ErrorCode::kInternal;
}

SessionOpenRequest sample_open(std::uint64_t session_id) {
  SessionOpenRequest request;
  request.session_id = session_id;
  request.trigger.spec = solver::BackendId::kBestOf;
  request.trigger.delta_count = 8;
  request.instance = make_instance({4, 3, 2, 1}, {0, 0, 1, 1}, 2);
  return request;
}

SessionDeltaRequest arrivals_frame(std::uint64_t session_id,
                                   std::uint64_t first_seq,
                                   std::uint64_t first_job_id,
                                   std::uint32_t count) {
  SessionDeltaRequest request;
  request.session_id = session_id;
  request.first_seq = first_seq;
  for (std::uint32_t i = 0; i < count; ++i) {
    stream::Delta arrive;
    arrive.kind = stream::DeltaKind::kJobArrive;
    arrive.id = first_job_id + i;
    arrive.size = 2 + i;
    request.deltas.push_back(arrive);
  }
  return request;
}

// ---------------------------------------------------------------------------
// The determinism contract.
// ---------------------------------------------------------------------------

TEST(SessionService, CheckedStreamSurvivesCrossReactorForwarding) {
  StreamServer server(3);
  const stream::DeltaLog log = sample_log(21, 120);

  StreamRunOptions run;
  run.endpoint = Endpoint::unix_socket(server.path());
  run.session_id = 1;
  run.frame_size = 5;
  // Reconnect after EVERY frame: round-robin dealing then lands the
  // frames on every reactor in turn, most of them not the one that opened
  // the session, and every ack still byte-matched.
  run.reconnect_every = 1;
  run.check = true;
  const StreamRunResult result = run_session_stream(log, run);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_GT(result.frames_sent, 10u);
  EXPECT_GT(result.deltas_applied, 0u);

  server.drain();
  EXPECT_GT(server.registry().counter("svc.connections_accepted").value(), 3);
  EXPECT_EQ(server.registry().counter("stream.sessions_opened").value(), 1);
  EXPECT_EQ(server.registry().counter("stream.sessions_closed").value(), 1);
  EXPECT_EQ(server.registry().gauge("stream.sessions_open").value(), 0);
}

TEST(SessionService, OneSessionDrivenFromEveryReactorAppliesEachFrameOnce) {
  // One connection per reactor (the acceptor deals round-robin). The
  // session opens on reactor 0; every delta frame then goes out twice at
  // the same moment, from reactors 1 and 2, as a retry racing its
  // original would. The session lock lets exactly one copy apply; the
  // other gets the stored reply, byte for byte.
  constexpr std::size_t kReactors = 3;
  StreamServer server(kReactors);
  std::vector<Client> clients;
  for (std::size_t r = 0; r < kReactors; ++r) {
    std::string error;
    auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
    ASSERT_TRUE(client) << error;
    ASSERT_EQ(raw_call(*client, MsgType::kPing, r + 1, "").type,
              MsgType::kPong);
    clients.push_back(std::move(*client));
  }

  const stream::DeltaLog log = sample_log(23, 90);
  constexpr std::uint64_t kSession = 77;
  SessionOpenRequest open;
  open.session_id = kSession;
  open.trigger = log.trigger;
  open.instance = log.initial;
  ASSERT_EQ(raw_call(clients[0], MsgType::kSessionOpen, 10,
                     encode_session_open_request(open))
                .type,
            MsgType::kSessionOpenOk);

  constexpr std::size_t kFrame = 3;
  std::size_t frames = 0;
  std::uint64_t request_id = 100;
  for (std::size_t first = 0; first < log.deltas.size(); first += kFrame) {
    SessionDeltaRequest request;
    request.session_id = kSession;
    request.first_seq = first + 1;
    const std::size_t end = std::min(first + kFrame, log.deltas.size());
    for (std::size_t i = first; i < end; ++i) {
      request.deltas.push_back(log.deltas[i]);
    }
    const std::string payload = encode_session_delta_request(request);
    RawReply replies[2];
    std::thread racers[2];
    for (std::size_t i = 0; i < 2; ++i) {
      racers[i] = std::thread([&, i] {
        replies[i] = raw_call(clients[1 + i], MsgType::kSessionDelta,
                              request_id, payload);
      });
    }
    for (std::thread& racer : racers) racer.join();
    ASSERT_TRUE(replies[0].type == MsgType::kSessionDeltaOk ||
                replies[0].type == MsgType::kSessionPlan)
        << "frame " << frames;
    EXPECT_EQ(replies[1].type, replies[0].type) << "frame " << frames;
    EXPECT_EQ(replies[1].payload, replies[0].payload) << "frame " << frames;
    ++frames;
    ++request_id;
  }

  const stream::ReplayResult reference =
      stream::replay_serial_reference(log.initial, log.trigger, log.deltas);
  ASSERT_TRUE(reference.ok) << reference.error;
  const RawReply stats =
      raw_call(clients[0], MsgType::kSessionStats, request_id,
               encode_session_id_payload(kSession));
  ASSERT_EQ(stats.type, MsgType::kSessionStatsOk);
  SessionStatsReply expected;
  expected.session_id = kSession;
  expected.stats = reference.final_stats;
  EXPECT_EQ(stats.payload, encode_session_stats_reply(expected));

  clients.clear();
  server.drain();
  // Every connection was dealt to its own reactor.
  for (std::size_t r = 0; r < kReactors; ++r) {
    EXPECT_EQ(server.registry()
                  .counter("svc.reactor" + std::to_string(r) +
                           ".connections_accepted")
                  .value(),
              1)
        << "reactor " << r;
  }
  EXPECT_EQ(server.registry().counter("stream.deltas_applied").value(),
            reference.final_stats.deltas_applied);
  EXPECT_EQ(server.registry().counter("stream.dup_frames_resent").value(),
            frames);
}

TEST(SessionService, RacingOpensOfOneIdOpenItOnce) {
  // Two reactors decode and build the same SessionOpen at once. Only the
  // first record inserted stands; the other copy is answered as a resend
  // of a pristine session's open, byte for byte.
  constexpr std::size_t kReactors = 2;
  constexpr std::uint64_t kIds = 20;
  StreamServer server(kReactors);
  std::vector<Client> clients;
  for (std::size_t r = 0; r < kReactors; ++r) {
    std::string error;
    auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
    ASSERT_TRUE(client) << error;
    clients.push_back(std::move(*client));
  }
  for (std::uint64_t id = 1; id <= kIds; ++id) {
    SessionOpenRequest open = sample_open(id);
    open.instance = mixed_corpus_instance(51, 1);  // 512 jobs: a slow build
    const std::string payload = encode_session_open_request(open);
    RawReply replies[kReactors];
    std::thread racers[kReactors];
    for (std::size_t r = 0; r < kReactors; ++r) {
      racers[r] = std::thread([&, r] {
        replies[r] = raw_call(clients[r], MsgType::kSessionOpen, id, payload);
      });
    }
    for (std::thread& racer : racers) racer.join();
    EXPECT_EQ(replies[0].type, MsgType::kSessionOpenOk) << "id " << id;
    EXPECT_EQ(replies[1].type, MsgType::kSessionOpenOk) << "id " << id;
    EXPECT_EQ(replies[1].payload, replies[0].payload) << "id " << id;
  }
  clients.clear();
  server.drain();
  EXPECT_EQ(server.registry().counter("stream.sessions_opened").value(),
            kIds);
  EXPECT_EQ(server.registry().gauge("stream.sessions_open").value(),
            static_cast<std::int64_t>(kIds));
  EXPECT_EQ(server.registry().counter("stream.dup_frames_resent").value(),
            kIds);
}

TEST(SessionService, ConcurrentSessionsAllMatchTheSerialReference) {
  StreamServer server(2);
  constexpr std::size_t kSessions = 4;
  std::vector<StreamRunResult> results(kSessions);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      const stream::DeltaLog log = sample_log(30 + s, 80);
      StreamRunOptions run;
      run.endpoint = Endpoint::unix_socket(server.path());
      run.session_id = s + 1;
      run.frame_size = 7;
      run.reconnect_every = 3;
      run.check = true;
      run.retry.jitter_seed = s;
      results[s] = run_session_stream(log, run);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(results[s].ok) << "session " << s << ": " << results[s].error;
    EXPECT_EQ(results[s].mismatches, 0u);
  }
}

TEST(SessionService, CacheEnabledServerStreamsIdenticalBytes) {
  StreamServer server(2, std::size_t{4} << 20);
  const stream::DeltaLog log = sample_log(22, 100);
  StreamRunOptions run;
  run.endpoint = Endpoint::unix_socket(server.path());
  run.session_id = 9;
  run.frame_size = 6;
  run.check = true;
  run.cached = true;  // mirror with cached_serial_reference
  const StreamRunResult result = run_session_stream(log, run);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Edge cases: every session error answers one frame and the stream stays
// open (proved by a successful call on the SAME connection afterwards).
// ---------------------------------------------------------------------------

TEST(SessionService, DuplicateOpenIsIdempotentOnlyWhenPristine) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  const std::string payload =
      encode_session_open_request(sample_open(7));
  const RawReply first = raw_call(*client, MsgType::kSessionOpen, 1, payload);
  ASSERT_EQ(first.type, MsgType::kSessionOpenOk);

  // Byte-identical re-open of a pristine session: the stored ack, resent.
  const RawReply again = raw_call(*client, MsgType::kSessionOpen, 2, payload);
  EXPECT_EQ(again.type, MsgType::kSessionOpenOk);
  EXPECT_EQ(again.payload, first.payload);

  // A DIFFERENT open for the same id is a conflict, not a resend.
  SessionOpenRequest conflicting = sample_open(7);
  conflicting.trigger.delta_count = 99;
  const RawReply conflict = raw_call(
      *client, MsgType::kSessionOpen, 3,
      encode_session_open_request(conflicting));
  EXPECT_EQ(error_code_of(conflict), ErrorCode::kSessionExists);

  // The connection survived the error.
  const RawReply stats = raw_call(*client, MsgType::kSessionStats, 4,
                                  encode_session_id_payload(7));
  EXPECT_EQ(stats.type, MsgType::kSessionStatsOk);
}

TEST(SessionService, ReopenAfterAnEmptyDeltaFrameIsRefused) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  const std::string payload = encode_session_open_request(sample_open(8));
  ASSERT_EQ(raw_call(*client, MsgType::kSessionOpen, 1, payload).type,
            MsgType::kSessionOpenOk);
  // A frame with no deltas consumes no sequence number, but it is
  // answered, so the session is no longer pristine.
  const RawReply empty =
      raw_call(*client, MsgType::kSessionDelta, 2,
               encode_session_delta_request(arrivals_frame(8, 1, 100, 0)));
  ASSERT_EQ(empty.type, MsgType::kSessionDeltaOk);
  // The same open bytes again are an id collision, as after any frame.
  const RawReply reopen = raw_call(*client, MsgType::kSessionOpen, 3, payload);
  EXPECT_EQ(error_code_of(reopen), ErrorCode::kSessionExists);
}

TEST(SessionService, UnknownSessionAndBadSequenceKeepTheStreamOpen) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  // Deltas and stats for a session nobody opened.
  const RawReply ghost_delta =
      raw_call(*client, MsgType::kSessionDelta, 1,
               encode_session_delta_request(arrivals_frame(99, 1, 100, 2)));
  EXPECT_EQ(error_code_of(ghost_delta), ErrorCode::kUnknownSession);
  const RawReply ghost_stats = raw_call(*client, MsgType::kSessionStats, 2,
                                        encode_session_id_payload(99));
  EXPECT_EQ(error_code_of(ghost_stats), ErrorCode::kUnknownSession);

  const RawReply open =
      raw_call(*client, MsgType::kSessionOpen, 3,
               encode_session_open_request(sample_open(1)));
  ASSERT_EQ(open.type, MsgType::kSessionOpenOk);

  // A gap is bad-sequence (only next-seq or an exact resend is accepted).
  const RawReply gap =
      raw_call(*client, MsgType::kSessionDelta, 4,
               encode_session_delta_request(arrivals_frame(1, 5, 100, 2)));
  EXPECT_EQ(error_code_of(gap), ErrorCode::kBadSequence);

  // The stream continues: the correctly numbered frame applies.
  const RawReply good =
      raw_call(*client, MsgType::kSessionDelta, 5,
               encode_session_delta_request(arrivals_frame(1, 1, 100, 2)));
  ASSERT_TRUE(good.type == MsgType::kSessionDeltaOk ||
              good.type == MsgType::kSessionPlan);
  const auto ack = decode_session_delta_reply(good.payload, &error);
  ASSERT_TRUE(ack) << error;
  EXPECT_EQ(ack->last_seq, 2u);
  EXPECT_EQ(ack->applied, 2u);
}

TEST(SessionService, CloseTombstonesTheSession) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  const RawReply open =
      raw_call(*client, MsgType::kSessionOpen, 1,
               encode_session_open_request(sample_open(3)));
  ASSERT_EQ(open.type, MsgType::kSessionOpenOk);

  const RawReply close = raw_call(*client, MsgType::kSessionClose, 2,
                                  encode_session_id_payload(3));
  ASSERT_EQ(close.type, MsgType::kSessionCloseOk);

  // A retried close gets the tombstoned ack, byte for byte.
  const RawReply close_again = raw_call(*client, MsgType::kSessionClose, 3,
                                        encode_session_id_payload(3));
  EXPECT_EQ(close_again.type, MsgType::kSessionCloseOk);
  EXPECT_EQ(close_again.payload, close.payload);

  // Deltas and stats after close are definitively rejected...
  const RawReply late_delta =
      raw_call(*client, MsgType::kSessionDelta, 4,
               encode_session_delta_request(arrivals_frame(3, 1, 100, 1)));
  EXPECT_EQ(error_code_of(late_delta), ErrorCode::kSessionClosed);
  const RawReply late_stats = raw_call(*client, MsgType::kSessionStats, 5,
                                       encode_session_id_payload(3));
  EXPECT_EQ(error_code_of(late_stats), ErrorCode::kSessionClosed);

  // ...and the id can never be reused (a lost-ack reopen must not
  // silently build a fresh session under a retried client).
  const RawReply reopen =
      raw_call(*client, MsgType::kSessionOpen, 6,
               encode_session_open_request(sample_open(3)));
  EXPECT_EQ(error_code_of(reopen), ErrorCode::kSessionExists);
}

TEST(SessionService, ExactResendOfTheLastFrameIsNotReapplied) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  ASSERT_EQ(raw_call(*client, MsgType::kSessionOpen, 1,
                     encode_session_open_request(sample_open(4)))
                .type,
            MsgType::kSessionOpenOk);

  const std::string frame =
      encode_session_delta_request(arrivals_frame(4, 1, 100, 3));
  const RawReply ack = raw_call(*client, MsgType::kSessionDelta, 2, frame);
  ASSERT_TRUE(ack.type == MsgType::kSessionDeltaOk ||
              ack.type == MsgType::kSessionPlan);

  // The identical frame again (a retry whose ack was lost): stored reply,
  // no re-application.
  const RawReply resent = raw_call(*client, MsgType::kSessionDelta, 3, frame);
  EXPECT_EQ(resent.type, ack.type);
  EXPECT_EQ(resent.payload, ack.payload);

  // The stream then continues from where it really was.
  const RawReply next =
      raw_call(*client, MsgType::kSessionDelta, 4,
               encode_session_delta_request(arrivals_frame(4, 4, 200, 1)));
  ASSERT_TRUE(next.type == MsgType::kSessionDeltaOk ||
              next.type == MsgType::kSessionPlan);
  const auto decoded = decode_session_delta_reply(next.payload, &error);
  ASSERT_TRUE(decoded) << error;
  EXPECT_EQ(decoded->last_seq, 4u);

  server.drain();
  // 4 deltas total: the resend must not have double-applied the first 3.
  EXPECT_EQ(server.registry().counter("stream.deltas_applied").value(), 4);
  EXPECT_GE(server.registry().counter("stream.dup_frames_resent").value(), 1);
}

TEST(SessionService, OversizedDeltaFrameIsRejectedNotFatal) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  ASSERT_EQ(raw_call(*client, MsgType::kSessionOpen, 1,
                     encode_session_open_request(sample_open(5)))
                .type,
            MsgType::kSessionOpenOk);

  // A frame whose count field claims more deltas than kMaxDeltasPerFrame
  // (and than the payload carries): the decoder must refuse it without
  // trusting the count, and the session error leaves the stream usable.
  std::string lying =
      encode_session_delta_request(arrivals_frame(5, 1, 100, 1));
  const std::uint32_t huge = kMaxDeltasPerFrame + 1;
  std::memcpy(lying.data() + 16, &huge, sizeof(huge));
  const RawReply rejected =
      raw_call(*client, MsgType::kSessionDelta, 2, lying);
  EXPECT_EQ(error_code_of(rejected), ErrorCode::kBadRequest);

  // Still open, still at seq 0: the honest frame applies.
  const RawReply good =
      raw_call(*client, MsgType::kSessionDelta, 3,
               encode_session_delta_request(arrivals_frame(5, 1, 100, 1)));
  ASSERT_TRUE(good.type == MsgType::kSessionDeltaOk ||
              good.type == MsgType::kSessionPlan);
  const auto decoded = decode_session_delta_reply(good.payload, &error);
  ASSERT_TRUE(decoded) << error;
  EXPECT_EQ(decoded->last_seq, 1u);
}

TEST(SessionService, OverflowingSizesAreRejectedAndTheStreamStaysOpen) {
  StreamServer server(1);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(server.path()), &error);
  ASSERT_TRUE(client) << error;

  // An initial instance whose total size overflows int64 is a BadRequest.
  SessionOpenRequest overflowing = sample_open(6);
  const Size half = Size{1} << 62;
  overflowing.instance.sizes = {half, half, 5};  // make_instance asserts
  overflowing.instance.move_costs = {1, 1, 1};
  overflowing.instance.initial = {0, 0, 1};
  EXPECT_EQ(error_code_of(raw_call(*client, MsgType::kSessionOpen, 1,
                                   encode_session_open_request(overflowing))),
            ErrorCode::kBadRequest);

  // Same connection: a valid open, then an arrival that would overflow the
  // live total is an ordinary rejected delta that leaves the state alone.
  ASSERT_EQ(raw_call(*client, MsgType::kSessionOpen, 2,
                     encode_session_open_request(sample_open(6)))
                .type,
            MsgType::kSessionOpenOk);
  SessionDeltaRequest frame = arrivals_frame(6, 1, 100, 1);
  frame.deltas[0].size = std::numeric_limits<Size>::max();
  frame.deltas[0].proc = 0;
  const RawReply rejected = raw_call(*client, MsgType::kSessionDelta, 3,
                                     encode_session_delta_request(frame));
  ASSERT_EQ(rejected.type, MsgType::kSessionDeltaOk);
  const auto ack = decode_session_delta_reply(rejected.payload, &error);
  ASSERT_TRUE(ack) << error;
  EXPECT_EQ(ack->applied, 0u);
  EXPECT_EQ(ack->rejected, 1u);
  EXPECT_NE(ack->first_error.find("total job size"), std::string::npos)
      << ack->first_error;
  EXPECT_EQ(ack->makespan, 7);  // loads {7, 3}, as opened

  const RawReply good =
      raw_call(*client, MsgType::kSessionDelta, 4,
               encode_session_delta_request(arrivals_frame(6, 2, 100, 1)));
  ASSERT_TRUE(good.type == MsgType::kSessionDeltaOk ||
              good.type == MsgType::kSessionPlan);
  const auto applied = decode_session_delta_reply(good.payload, &error);
  ASSERT_TRUE(applied) << error;
  EXPECT_EQ(applied->last_seq, 2u);
  EXPECT_EQ(applied->applied, 1u);
}

TEST(SessionService, SessionsRespectTheCapacityLimit) {
  // max_sessions is ServerOptions-controlled; the smallest server proves
  // the kOverloaded path without opening thousands of sessions.
  std::string path = stream_socket_path();
  ServerOptions options;
  options.unix_path = path;
  obs::Registry registry;
  options.metrics = &registry;
  options.max_sessions = 1;
  auto owned = std::make_unique<Server>(std::move(options));
  std::string error;
  ASSERT_TRUE(owned->start(&error)) << error;
  std::thread runner([&owned] { owned->run(); });

  auto client = Client::connect(Endpoint::unix_socket(path), &error);
  ASSERT_TRUE(client) << error;
  ASSERT_EQ(raw_call(*client, MsgType::kSessionOpen, 1,
                     encode_session_open_request(sample_open(1)))
                .type,
            MsgType::kSessionOpenOk);
  const RawReply overflow =
      raw_call(*client, MsgType::kSessionOpen, 2,
               encode_session_open_request(sample_open(2)));
  EXPECT_EQ(error_code_of(overflow), ErrorCode::kOverloaded);

  // Closing the first session frees the slot.
  ASSERT_EQ(raw_call(*client, MsgType::kSessionClose, 3,
                     encode_session_id_payload(1))
                .type,
            MsgType::kSessionCloseOk);
  EXPECT_EQ(raw_call(*client, MsgType::kSessionOpen, 4,
                     encode_session_open_request(sample_open(2)))
                .type,
            MsgType::kSessionOpenOk);

  client.reset();
  owned->notify_signal();
  runner.join();
  unlink(path.c_str());
}

}  // namespace
}  // namespace lrb::svc
