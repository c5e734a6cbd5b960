// Loopback tests for the rebalancing service (src/svc): wire protocol
// round-trips, framing robustness (partial reads/writes, oversized and
// malformed headers), the determinism contract (every SolveOk payload
// byte-identical to the serial solver), deadline/overload shedding,
// graceful drain (Drain request and SIGTERM), which Solves a reactor
// answers inline and which go to the engine, and metrics agreement
// between the server's registry and client-observed counts. The
// MultiReactor suite covers the sharded front-end: round-robin connection
// distribution, per-reactor counter reconciliation, and drain/SIGTERM with
// an in-flight request on every reactor.
//
// The concurrency-heavy suites (SvcLoopback, MultiReactor) also run under
// TSan in CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "svc/client.h"
#include "svc/fault/io_shim.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "util/timer.h"

namespace lrb::svc {
namespace {

// ---------------------------------------------------------------------------
// Wire-format unit tests (no sockets).
// ---------------------------------------------------------------------------

void append_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::string raw_header(const char magic[4], std::uint16_t version,
                       std::uint16_t type, std::uint64_t request_id,
                       std::uint32_t payload_len) {
  std::string out(magic, 4);
  append_u16(out, version);
  append_u16(out, type);
  append_u64(out, request_id);
  append_u32(out, payload_len);
  return out;
}

SolveRequest sample_request(std::size_t index = 0) {
  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(index, 42);
  request.k = 5;
  return request;
}

/// sample_request(index) as a PTAS Solve. The PTAS never runs inline, so
/// this request always takes the engine path (and its tick delay).
SolveRequest engine_request(std::size_t index = 0) {
  SolveRequest request = sample_request(index);
  request.spec = solver::BackendId::kPtas;
  return request;
}

TEST(Wire, HeaderRoundTrip) {
  std::string frame;
  encode_frame(frame, MsgType::kSolve, 0xdeadbeefcafe1234ull, "abc");
  ASSERT_EQ(frame.size(), kHeaderSize + 3);
  FrameHeader header;
  ASSERT_EQ(decode_header(frame, &header), DecodeStatus::kOk);
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, MsgType::kSolve);
  EXPECT_EQ(header.request_id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(header.payload_len, 3u);
  EXPECT_EQ(frame.substr(kHeaderSize), "abc");
}

TEST(Wire, HeaderNeedsAllTwentyBytes) {
  std::string frame;
  encode_frame(frame, MsgType::kPing, 1, "");
  FrameHeader header;
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    EXPECT_EQ(decode_header(std::string_view(frame).substr(0, len), &header),
              DecodeStatus::kNeedMore)
        << len;
  }
  EXPECT_EQ(decode_header(frame, &header), DecodeStatus::kOk);
}

TEST(Wire, HeaderRejectsBadMagicVersionAndOversize) {
  FrameHeader header;
  EXPECT_EQ(decode_header(raw_header("XRBS", kWireVersion, 1, 0, 0), &header),
            DecodeStatus::kBadMagic);
  EXPECT_EQ(decode_header(raw_header("LRBS", 999, 1, 0, 0), &header),
            DecodeStatus::kBadVersion);
  EXPECT_EQ(
      decode_header(raw_header("LRBS", kWireVersion, 1, 0, kMaxPayload + 1),
                    &header),
      DecodeStatus::kTooLarge);
  EXPECT_EQ(
      decode_header(raw_header("LRBS", kWireVersion, 1, 7, kMaxPayload),
                    &header),
      DecodeStatus::kOk);
}

TEST(Wire, SolveRequestRoundTrip) {
  SolveRequest request = sample_request(3);
  request.spec.backend = solver::BackendId::kPtas;
  request.deadline_ms = 250;
  request.spec.params.budget = 77;
  request.spec.params.eps = 0.5;
  std::string error;
  const auto decoded =
      decode_solve_request(encode_solve_request(request), &error);
  ASSERT_TRUE(decoded) << error;
  EXPECT_EQ(decoded->spec.backend, request.spec.backend);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->spec.params.budget, request.spec.params.budget);
  EXPECT_DOUBLE_EQ(decoded->spec.params.eps, request.spec.params.eps);
  EXPECT_EQ(decoded->instance.num_procs, request.instance.num_procs);
  EXPECT_EQ(decoded->instance.sizes, request.instance.sizes);
  EXPECT_EQ(decoded->instance.move_costs, request.instance.move_costs);
  EXPECT_EQ(decoded->instance.initial, request.instance.initial);
}

TEST(Wire, SolveRequestRejectsCorruption) {
  const std::string good = encode_solve_request(sample_request());
  std::string error;
  // Truncations at every boundary must fail cleanly, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        decode_solve_request(std::string_view(good).substr(0, len), &error))
        << len;
  }
  // Trailing garbage is also rejected (lengths are exact).
  EXPECT_FALSE(decode_solve_request(good + "x", &error));
  // Unknown algo id.
  std::string bad_algo = good;
  bad_algo[0] = 9;
  EXPECT_FALSE(decode_solve_request(bad_algo, &error));
  // Structurally invalid instance: initial placement out of range.
  SolveRequest invalid = sample_request();
  invalid.instance.initial[0] = invalid.instance.num_procs;
  EXPECT_FALSE(decode_solve_request(encode_solve_request(invalid), &error));
  EXPECT_FALSE(error.empty());
}

TEST(Wire, SolveReplyRoundTripIsExact) {
  const SolveRequest request = sample_request(7);
  const RebalanceResult result = engine::solve_serial_reference(
      request.spec, request.instance, request.k);
  const std::string payload = encode_solve_reply_payload(result);
  std::string error;
  const auto decoded = decode_solve_reply_payload(payload, &error);
  ASSERT_TRUE(decoded) << error;
  EXPECT_EQ(decoded->makespan, result.makespan);
  EXPECT_EQ(decoded->moves, result.moves);
  EXPECT_EQ(decoded->cost, result.cost);
  EXPECT_EQ(decoded->threshold, result.threshold);
  EXPECT_EQ(decoded->assignment, result.assignment);
  // Purity: re-encoding the decoded result reproduces the bytes, which is
  // what makes byte-comparing replies against the serial solver meaningful.
  EXPECT_EQ(encode_solve_reply_payload(*decoded), payload);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_solve_reply_payload(
        std::string_view(payload).substr(0, len), &error))
        << len;
  }
}

TEST(Wire, ErrorPayloadRoundTrip) {
  const std::string payload =
      encode_error_payload(ErrorCode::kOverloaded, "queue full");
  const auto decoded = decode_error_payload(payload);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->code, ErrorCode::kOverloaded);
  EXPECT_EQ(decoded->text, "queue full");
  EXPECT_FALSE(decode_error_payload(""));
  EXPECT_FALSE(decode_error_payload(payload.substr(0, 7)));
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
}

// ---------------------------------------------------------------------------
// Loopback harness.
// ---------------------------------------------------------------------------

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/lrb_svc_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A server on a fresh Unix socket with its own metrics registry, run() on
/// a background thread. finish() drains via notify_signal (unless a Drain
/// request already stopped it) and joins.
class TestServer {
 public:
  explicit TestServer(ServerOptions options = {}) {
    path_ = unique_socket_path();
    options.unix_path = path_;
    options.metrics = &registry_;
    if (options.engine.workers == 0) options.engine.workers = 2;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { finish(); }

  void finish() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
    unlink(path_.c_str());
  }

  /// Joins run() without signalling — for tests where a Drain request or a
  /// signal already triggered the drain. Hangs (and hits the ctest timeout)
  /// if the server never finishes draining, which IS the failure signal.
  void join_drained() {
    if (runner_.joinable()) runner_.join();
  }

  /// Spin-waits until `counter` reaches `want` — used to order test
  /// actions after server-side processing without sleeping blindly.
  void wait_for_counter(const std::string& counter, std::uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (registry_.counter(counter).value() < want) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << counter << " never reached " << want;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Client connect() {
    std::string error;
    auto client = Client::connect(Endpoint::unix_socket(path_), &error);
    EXPECT_TRUE(client) << error;
    return client ? std::move(*client) : Client();
  }

  Server& server() { return *server_; }
  obs::Registry& registry() { return registry_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

std::string expected_reply_payload(const SolveRequest& request) {
  return encode_solve_reply_payload(engine::solve_serial_reference(
      request.spec, request.instance, request.k));
}

// ---------------------------------------------------------------------------
// Loopback tests.
// ---------------------------------------------------------------------------

TEST(SvcLoopback, PingEchoesPayloadAndRequestId) {
  TestServer ts;
  Client client = ts.connect();
  FrameHeader header;
  std::string payload, error;
  ASSERT_TRUE(client.call(MsgType::kPing, 99, "hello svc", &header, &payload,
                          &error))
      << error;
  EXPECT_EQ(header.type, MsgType::kPong);
  EXPECT_EQ(header.request_id, 99u);
  EXPECT_EQ(payload, "hello svc");
}

TEST(SvcLoopback, SolveRepliesAreByteIdenticalToSerialAcrossAlgos) {
  TestServer ts;
  Client client = ts.connect();
  std::uint64_t id = 1;
  for (const auto& backend : solver::all_backends()) {
    if (backend.id == solver::BackendId::kPtas) continue;  // small tier below
    for (std::size_t i = 0; i < 6; ++i) {
      SolveRequest request = sample_request(i);
      request.spec = solver::SolverSpec(
          backend.id, {.budget = static_cast<Cost>(8 * (i + 1))});
      std::string error;
      const auto outcome = client.solve(request, id++, &error);
      ASSERT_TRUE(outcome) << error;
      ASSERT_TRUE(outcome->result) << "unexpected server error";
      EXPECT_EQ(outcome->raw_payload, expected_reply_payload(request))
          << backend.name << " i=" << i;
    }
  }
  // The small PTAS case rides the same contract.
  SolveRequest ptas = sample_request(1);
  ptas.spec.backend = solver::BackendId::kPtas;
  ptas.instance = mixed_corpus_instance(0, 7);
  ptas.instance.sizes.resize(12);
  ptas.instance.initial.resize(12);
  ptas.instance.move_costs.resize(12);
  ptas.k = 3;
  ptas.spec.params.budget = 10;
  ptas.spec.params.eps = 0.5;
  std::string error;
  const auto outcome = client.solve(ptas, id++, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  EXPECT_EQ(outcome->raw_payload, expected_reply_payload(ptas));
}

TEST(SvcLoopback, OutOfRangeConsumedKnobsAreBadRequestsOnAnOpenConnection) {
  // A knob a backend consumes must be in range (the PTAS and cost-PARTITION
  // assert on it); the server answers BadRequest and keeps serving the
  // same connection. Knobs a backend ignores are never inspected.
  TestServer ts;
  Client client = ts.connect();
  const SolveRequest valid = sample_request(2);
  const std::string want = expected_reply_payload(valid);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<solver::SolverSpec> bad;
  for (const double eps : {0.0, -0.5, nan, inf}) {
    bad.emplace_back(solver::BackendId::kPtas,
                     solver::SolverParams{.eps = eps});
  }
  bad.emplace_back(solver::BackendId::kPtas,
                   solver::SolverParams{.budget = -1});
  bad.emplace_back(solver::BackendId::kCostPartition,
                   solver::SolverParams{.budget = -1});
  std::uint64_t id = 1;
  for (const auto& spec : bad) {
    SCOPED_TRACE(std::string(solver::backend_name(spec.backend)) + " eps=" +
                 std::to_string(spec.params.eps) +
                 " budget=" + std::to_string(spec.params.budget));
    SolveRequest request = valid;
    request.spec = spec;
    std::string error;
    const auto rejected = client.solve(request, id++, &error);
    ASSERT_TRUE(rejected) << error;
    EXPECT_FALSE(rejected->result);
    ASSERT_TRUE(rejected->server_error);
    EXPECT_EQ(rejected->server_error->code, ErrorCode::kBadRequest);

    const auto served = client.solve(valid, id++, &error);
    ASSERT_TRUE(served) << error;
    ASSERT_TRUE(served->result);
    EXPECT_EQ(served->raw_payload, want);
  }
  SolveRequest lax = valid;
  lax.spec = solver::SolverSpec(solver::BackendId::kGreedy,
                                {.budget = -5, .eps = 0.0});
  std::string error;
  const auto served = client.solve(lax, id++, &error);
  ASSERT_TRUE(served) << error;
  ASSERT_TRUE(served->result);
  EXPECT_EQ(served->raw_payload, expected_reply_payload(lax));
  EXPECT_EQ(ts.registry().counter("svc.bad_requests").value(), bad.size());
}

TEST(SvcLoopback, SolveWhoseTotalSizeOverflowsIsABadRequestOnAnOpenConnection) {
  // Sizes summing past int64 once got wrong answers (signed overflow);
  // lrb::validate caps the total below kInfSize, so decode rejects them.
  TestServer ts;
  Client client = ts.connect();
  SolveRequest overflowing;
  overflowing.spec = solver::BackendId::kBestOf;
  const Size half = Size{1} << 62;
  overflowing.instance.sizes = {half, half, 5};
  overflowing.instance.move_costs = {1, 1, 1};
  overflowing.instance.initial = {0, 0, 1};
  overflowing.instance.num_procs = 2;
  overflowing.k = 1;
  std::string error;
  const auto rejected = client.solve(overflowing, 1, &error);
  ASSERT_TRUE(rejected) << error;
  EXPECT_FALSE(rejected->result);
  ASSERT_TRUE(rejected->server_error);
  EXPECT_EQ(rejected->server_error->code, ErrorCode::kBadRequest);

  const SolveRequest valid = sample_request(2);
  const auto served = client.solve(valid, 2, &error);
  ASSERT_TRUE(served) << error;
  ASSERT_TRUE(served->result);
  EXPECT_EQ(served->raw_payload, expected_reply_payload(valid));
  EXPECT_EQ(ts.registry().counter("svc.bad_requests").value(), 1u);
}

TEST(SvcLoopback, ConcurrentClientsStayDeterministic) {
  TestServer ts;
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&ts, &failures, c] {
      Client client = ts.connect();
      for (int i = 0; i < kRequests; ++i) {
        const std::size_t index =
            static_cast<std::size_t>(c) * 100 + static_cast<std::size_t>(i);
        SolveRequest request = sample_request(index);
        request.spec = (index % 2 == 0) ? solver::BackendId::kBestOf
                                        : solver::BackendId::kGreedy;
        std::string error;
        const auto outcome = client.solve(request, index, &error);
        if (!outcome || !outcome->result ||
            outcome->raw_payload != expected_reply_payload(request)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(),
            static_cast<std::uint64_t>(kClients) * kRequests);
}

TEST(SvcLoopback, PartialReadsReassembleFrames) {
  TestServer ts;
  Client client = ts.connect();
  SolveRequest request = sample_request(2);
  std::string frame;
  encode_frame(frame, MsgType::kSolve, 31337,
               encode_solve_request(request));
  // Dribble the frame in 7-byte chunks (splitting both the header and the
  // payload mid-way); the server must reassemble and answer normally.
  std::string error;
  for (std::size_t pos = 0; pos < frame.size(); pos += 7) {
    ASSERT_TRUE(client.send_bytes(
        std::string_view(frame).substr(pos, 7), &error))
        << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(header.request_id, 31337u);
  EXPECT_EQ(payload, expected_reply_payload(request));
}

TEST(SvcLoopback, TwoFramesInOneWriteBothAnswered) {
  TestServer ts;
  Client client = ts.connect();
  const SolveRequest a = sample_request(4);
  const SolveRequest b = sample_request(5);
  std::string bytes;
  encode_frame(bytes, MsgType::kSolve, 1, encode_solve_request(a));
  encode_frame(bytes, MsgType::kSolve, 2, encode_solve_request(b));
  std::string error;
  ASSERT_TRUE(client.send_bytes(bytes, &error)) << error;
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.request_id, 1u);
  EXPECT_EQ(payload, expected_reply_payload(a));
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.request_id, 2u);
  EXPECT_EQ(payload, expected_reply_payload(b));
}

TEST(SvcLoopback, SlowReaderGetsFullReplyViaPartialWrites) {
  TestServer ts;
  Client client = ts.connect();
  // A 4 MiB ping echo cannot fit the socket buffers while the client is
  // not reading, so the server must buffer and finish via POLLOUT.
  const std::string big(4u << 20, 'x');
  std::string error;
  ASSERT_TRUE(client.send_frame(MsgType::kPing, 5, big, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kPong);
  EXPECT_EQ(payload.size(), big.size());
  EXPECT_EQ(payload, big);
}

TEST(SvcLoopback, OversizedHeaderIsRejectedAndConnectionCloses) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;
  ASSERT_TRUE(client.send_bytes(
      raw_header("LRBS", kWireVersion, static_cast<std::uint16_t>(
                                           MsgType::kPing),
                 12, kMaxPayload + 1),
      &error))
      << error;
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.type, MsgType::kError);
  const auto reply = decode_error_payload(payload);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->code, ErrorCode::kBadRequest);
  // After the error the server closes the connection.
  EXPECT_FALSE(client.recv_frame(&header, &payload, &error));
  EXPECT_EQ(ts.registry().counter("svc.bad_requests").value(), 1u);
}

TEST(SvcLoopback, BadMagicClosesConnection) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;
  ASSERT_TRUE(client.send_bytes(
      raw_header("EVIL", kWireVersion,
                 static_cast<std::uint16_t>(MsgType::kPing), 0, 0),
      &error));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kError);
  EXPECT_FALSE(client.recv_frame(&header, &payload, &error));
}

TEST(SvcLoopback, MalformedSolvePayloadGetsBadRequest) {
  TestServer ts;
  Client client = ts.connect();
  FrameHeader header;
  std::string payload, error;
  ASSERT_TRUE(client.call(MsgType::kSolve, 8, "not a solve payload", &header,
                          &payload, &error))
      << error;
  ASSERT_EQ(header.type, MsgType::kError);
  const auto reply = decode_error_payload(payload);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->code, ErrorCode::kBadRequest);
  // The connection survives a bad payload (only framing-level corruption
  // kills it): a follow-up solve still works.
  const SolveRequest request = sample_request(1);
  const auto outcome = client.solve(request, 9, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  EXPECT_EQ(outcome->raw_payload, expected_reply_payload(request));
}

TEST(SvcLoopback, DeadlineShedsBeforeDispatch) {
  ServerOptions options;
  options.tick_delay_ms = 100;  // every tick dispatches at least 100ms late
  TestServer ts(std::move(options));
  Client client = ts.connect();
  SolveRequest request = engine_request(0);
  request.deadline_ms = 1;
  std::string error;
  const auto outcome = client.solve(request, 1, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->server_error) << "expected a deadline shed";
  EXPECT_EQ(outcome->server_error->code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(ts.registry().counter("svc.shed_deadline").value(), 1u);
  // A deadline-free request on the same connection still succeeds.
  SolveRequest relaxed = engine_request(0);
  const auto ok = client.solve(relaxed, 2, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_TRUE(ok->result);
  EXPECT_EQ(ok->raw_payload, expected_reply_payload(relaxed));
}

TEST(SvcLoopback, QueueDepthBackpressureShedsWithOverloaded) {
  ServerOptions options;
  options.max_queue = 1;
  options.tick_delay_ms = 300;  // hold the first solve in the queue
  TestServer ts(std::move(options));
  Client client = ts.connect();
  const SolveRequest first = engine_request(0);
  const SolveRequest second = engine_request(1);
  std::string error;
  // Pipeline both without reading: the second arrives while the first is
  // still pending, so admission control must shed it — not hang.
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 1,
                                encode_solve_request(first), &error));
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 2,
                                encode_solve_request(second), &error));
  // Reply 1 is the Overloaded shed for request 2 (queued immediately);
  // reply 2 is request 1's result after the delayed tick.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.request_id, 2u);
  ASSERT_EQ(header.type, MsgType::kError);
  const auto reply = decode_error_payload(payload);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->code, ErrorCode::kOverloaded);
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.request_id, 1u);
  EXPECT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(first));
  EXPECT_EQ(ts.registry().counter("svc.shed_overloaded").value(), 1u);
}

TEST(SvcLoopback, UnreadRepliesStopTheReactorReading) {
  // A client pipelines Solves and reads no reply. Past the reply backlog
  // cap (4 MiB) its reactor stops reading it, so the sends stall in the
  // socket instead of piling replies up in the server. Each 4096-job
  // `none` Solve is an 80 KiB request and a 16 KiB reply: about 260 of
  // them fill the backlog, well short of the 800 sent.
  constexpr std::uint64_t kSent = 800;
  ServerOptions options;
  options.max_queue = kSent;  // admit every pipelined Solve
  TestServer ts(std::move(options));
  Client client = ts.connect();
  GeneratorOptions gen;
  gen.num_jobs = 4096;
  gen.num_procs = 16;
  std::vector<std::string> payloads;
  std::vector<std::string> wants;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SolveRequest request;
    request.spec = solver::BackendId::kNone;
    request.instance = random_instance(gen, seed);
    request.k = 8;
    payloads.push_back(encode_solve_request(request));
    wants.push_back(expected_reply_payload(request));
  }
  // send_frame and recv_frame share only the socket, so this thread may
  // send while the test body receives.
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    std::string error;
    for (std::uint64_t id = 0; id < kSent; ++id) {
      if (!client.send_frame(MsgType::kSolve, id,
                             payloads[id % payloads.size()], &error)) {
        send_failed.store(true);
        return;
      }
    }
  });
  // Wait until the server reads no more: svc.requests_solve holds still
  // for 300 ms, or has reached every Solve sent.
  const obs::Counter& solves = ts.registry().counter("svc.requests_solve");
  std::uint64_t read = 0;
  std::uint64_t before = 0;
  do {
    before = read;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    read = solves.value();
  } while (read < kSent && (read == 0 || read != before));
  EXPECT_LT(read, kSent / 2) << "the server kept reading an unread client";
  EXPECT_GE(ts.registry().counter("svc.reads_paused").value(), 1u);
  // Reading resumes the flow: every reply arrives, byte-identical.
  std::uint64_t matched = 0;
  for (std::uint64_t i = 0; i < kSent; ++i) {
    FrameHeader header;
    std::string payload, error;
    if (!client.recv_frame(&header, &payload, &error)) {
      ADD_FAILURE() << "reply " << i << ": " << error;
      break;
    }
    if (header.type == MsgType::kSolveOk && header.request_id < kSent &&
        payload == wants[header.request_id % wants.size()]) {
      ++matched;
    }
  }
  sender.join();
  EXPECT_FALSE(send_failed.load());
  EXPECT_EQ(matched, kSent);
  EXPECT_EQ(solves.value(), kSent);
}

TEST(SvcLoopback, DrainRequestAnswersInFlightThenAcks) {
  ServerOptions options;
  options.tick_delay_ms = 50;  // keep the solve in flight during the drain
  TestServer ts(std::move(options));
  Client client = ts.connect();
  const SolveRequest request = engine_request(3);
  std::string error;
  // Solve (a PTAS, so it waits on the engine), then Drain, then a
  // post-drain Solve — all pipelined.
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 1,
                                encode_solve_request(request), &error));
  ASSERT_TRUE(client.send_frame(MsgType::kDrain, 2, "", &error));
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 3,
                                encode_solve_request(request), &error));
  // The post-drain solve is rejected immediately with Draining...
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.request_id, 3u);
  ASSERT_EQ(header.type, MsgType::kError);
  const auto rejected = decode_error_payload(payload);
  ASSERT_TRUE(rejected);
  EXPECT_EQ(rejected->code, ErrorCode::kDraining);
  // ...the admitted solve is still answered in full...
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.request_id, 1u);
  ASSERT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(request));
  // ...and DrainOk arrives only after it (same FIFO write buffer).
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kDrainOk);
  // run() returns on its own; no signal needed.
  ts.join_drained();
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.rejected_draining").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.dropped_replies").value(), 0u);
}

TEST(SvcLoopback, SigtermDrainsWithZeroDroppedRequests) {
  ServerOptions options;
  options.tick_delay_ms = 50;
  TestServer ts(std::move(options));
  install_signal_drain(&ts.server());
  Client client = ts.connect();
  const SolveRequest request = engine_request(6);
  std::string error;
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 41,
                                encode_solve_request(request), &error));
  // Wait for the solve to be admitted, then let SIGTERM land while it is
  // still in flight (the 50 ms tick delay keeps it pending): the handler
  // forwards through the self-pipe and the drain must not drop it.
  ts.wait_for_counter("svc.requests_solve", 1);
  raise(SIGTERM);
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.request_id, 41u);
  EXPECT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(request));
  // EOF after the flush: the server closed the connection on its way out.
  EXPECT_FALSE(client.recv_frame(&header, &payload, &error));
  ts.join_drained();
  install_signal_drain(nullptr);
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.shed_deadline").value(), 0u);
  EXPECT_EQ(ts.registry().counter("svc.dropped_replies").value(), 0u);
}

TEST(SvcLoopback, IdleConnectionSolvesInlinePastASlowEngine) {
  ServerOptions options;
  options.tick_delay_ms = 300;  // every engine tick starts 300 ms late
  TestServer ts(std::move(options));
  Client client = ts.connect();
  std::string error;
  // A lone best-of on an idle reactor is answered by that reactor and
  // never waits for a tick.
  const SolveRequest cheap = sample_request(0);
  Timer timer;
  const auto inline_reply = client.solve(cheap, 1, &error);
  const double inline_ms = timer.millis();
  ASSERT_TRUE(inline_reply) << error;
  ASSERT_TRUE(inline_reply->result);
  EXPECT_EQ(inline_reply->raw_payload, expected_reply_payload(cheap));
  EXPECT_LT(inline_ms, 150.0);
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.engine_ticks").value(), 0u);
  // A PTAS on the same connection meets the slowed engine.
  const SolveRequest costly = engine_request(0);
  timer.reset();
  const auto engine_reply = client.solve(costly, 2, &error);
  const double engine_ms = timer.millis();
  ASSERT_TRUE(engine_reply) << error;
  ASSERT_TRUE(engine_reply->result);
  EXPECT_EQ(engine_reply->raw_payload, expected_reply_payload(costly));
  EXPECT_GE(engine_ms, 300.0);
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.engine_ticks").value(), 1u);
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(), 2u);
}

TEST(SvcLoopback, PipelinedSolvesGoToTheEngineInOrder) {
  TestServer ts;
  Client client = ts.connect();
  std::vector<SolveRequest> requests;
  std::string bytes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    requests.push_back(sample_request(10 + id));
    encode_frame(bytes, MsgType::kSolve, id,
                 encode_solve_request(requests.back()));
  }
  // One write: the reactor reads three Solves in one poll pass, so all
  // three tick and reply in order.
  std::string error;
  ASSERT_TRUE(client.send_bytes(bytes, &error)) << error;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
    ASSERT_EQ(header.request_id, id);
    ASSERT_EQ(header.type, MsgType::kSolveOk);
    EXPECT_EQ(payload, expected_reply_payload(requests[id - 1]));
  }
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 0u);
  EXPECT_GE(ts.registry().counter("svc.engine_ticks").value(), 1u);
}

TEST(SvcLoopback, SolveBehindAnEngineSolveKeepsItsTurn) {
  ServerOptions options;
  options.tick_delay_ms = 300;  // hold the PTAS on the engine
  TestServer ts(std::move(options));
  Client client = ts.connect();
  const SolveRequest costly = engine_request(2);
  const SolveRequest cheap = sample_request(2);
  std::string error;
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 1,
                                encode_solve_request(costly), &error));
  // The reactor admits the PTAS before it reads anything else, so the
  // best-of below arrives alone, on a reactor with a Solve outstanding.
  ts.wait_for_counter("svc.requests_solve", 1);
  ASSERT_TRUE(client.send_frame(MsgType::kSolve, 2,
                                encode_solve_request(cheap), &error));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.request_id, 1u);
  ASSERT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(costly));
  ASSERT_TRUE(client.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.request_id, 2u);
  ASSERT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(cheap));
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 0u);
}

/// Socket IO whose poll(2) calls wait while its gate is closed, so a test
/// can queue frames on several connections for one poll pass to read.
class PollGate final : public fault::SocketIo {
 public:
  int poll(struct pollfd* fds, nfds_t nfds, int timeout_ms) override {
    {
      std::unique_lock lock(mutex_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      --parked_;
    }
    return fault::SocketIo::poll(fds, nfds, timeout_ms);
  }

  void close() {
    std::lock_guard lock(mutex_);
    open_ = false;
  }

  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

  /// Waits until `callers` poll calls wait at the closed gate.
  void wait_parked(int callers) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return parked_ >= callers; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
};

TEST(SvcLoopback, SolvesFromTwoConnectionsInOnePollPassTick) {
  PollGate gate;
  ServerOptions options;
  options.io = &gate;
  TestServer ts(std::move(options));
  Client first = ts.connect();
  Client second = ts.connect();
  FrameHeader header;
  std::string payload, error;
  // Both connections are adopted once each has had its Pong.
  ASSERT_TRUE(first.call(MsgType::kPing, 1, "x", &header, &payload, &error));
  ASSERT_TRUE(second.call(MsgType::kPing, 1, "x", &header, &payload, &error));
  // Park the acceptor and the one reactor at the gate, then queue one
  // best-of on each connection: the reactor's next poll pass reads both.
  // (No ASSERT until the gate opens again, or the server could not stop.)
  gate.close();
  gate.wait_parked(2);
  const SolveRequest requests[] = {sample_request(20), sample_request(21)};
  EXPECT_TRUE(first.send_frame(MsgType::kSolve, 2,
                               encode_solve_request(requests[0]), &error));
  EXPECT_TRUE(second.send_frame(MsgType::kSolve, 2,
                                encode_solve_request(requests[1]), &error));
  gate.open();
  Client* clients[] = {&first, &second};
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(clients[c]->recv_frame(&header, &payload, &error)) << error;
    ASSERT_EQ(header.request_id, 2u);
    ASSERT_EQ(header.type, MsgType::kSolveOk);
    EXPECT_EQ(payload, expected_reply_payload(requests[c]));
  }
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 0u);
  EXPECT_GE(ts.registry().counter("svc.engine_ticks").value(), 1u);
}

TEST(SvcLoopback, SolveOnAReactorWithAnEngineSolveTicks) {
  ServerOptions options;
  options.tick_delay_ms = 300;  // hold the PTAS on the engine
  TestServer ts(std::move(options));
  Client first = ts.connect();
  Client second = ts.connect();
  const SolveRequest costly = engine_request(3);
  const SolveRequest cheap = sample_request(3);
  std::string error;
  ASSERT_TRUE(first.send_frame(MsgType::kSolve, 1,
                               encode_solve_request(costly), &error));
  ts.wait_for_counter("svc.requests_solve", 1);
  // A lone best-of on an idle connection, but its reactor has the PTAS on
  // the engine: it ticks too.
  const auto outcome = second.solve(cheap, 1, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  EXPECT_EQ(outcome->raw_payload, expected_reply_payload(cheap));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(first.recv_frame(&header, &payload, &error)) << error;
  ASSERT_EQ(header.type, MsgType::kSolveOk);
  EXPECT_EQ(payload, expected_reply_payload(costly));
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 0u);
}

TEST(SvcLoopback, InlineSolvesMatchTheCachedReference) {
  ServerOptions options;
  options.engine.cache_bytes = std::size_t{8} << 20;
  TestServer ts(std::move(options));
  Client client = ts.connect();
  const SolveRequest request = sample_request(7);
  // The same problem under other labels: jobs in reverse order and
  // processors rotated by one share the cold request's cache entry.
  SolveRequest relabeled = request;
  const std::size_t n = request.instance.num_jobs();
  const ProcId m = request.instance.num_procs;
  for (std::size_t j = 0; j < n; ++j) {
    relabeled.instance.sizes[n - 1 - j] = request.instance.sizes[j];
    relabeled.instance.move_costs[n - 1 - j] = request.instance.move_costs[j];
    relabeled.instance.initial[n - 1 - j] =
        static_cast<ProcId>((request.instance.initial[j] + 1) % m);
  }
  // Cold, warm, and warm under the relabeling.
  const SolveRequest sends[] = {request, request, relabeled};
  std::uint64_t id = 1;
  for (const SolveRequest& sent : sends) {
    std::string error;
    const auto outcome = client.solve(sent, id, &error);
    ASSERT_TRUE(outcome) << error;
    ASSERT_TRUE(outcome->result);
    EXPECT_EQ(outcome->raw_payload,
              encode_solve_reply_payload(engine::cached_serial_reference(
                  sent.spec, sent.instance, sent.k)))
        << "request " << id;
    ++id;
  }
  EXPECT_EQ(ts.registry().counter("svc.solves_inline").value(), 3u);
  EXPECT_EQ(ts.registry().counter("cache.misses").value(), 1u);
  EXPECT_EQ(ts.registry().counter("cache.hits").value(), 2u);
  EXPECT_EQ(ts.registry().counter("svc.engine_ticks").value(), 0u);
}

TEST(SvcLoopback, StatsSnapshotAgreesWithClientObservedCounts) {
  TestServer ts;
  Client client = ts.connect();
  constexpr std::uint64_t kSolves = 5;
  constexpr std::uint64_t kPings = 3;
  std::string error;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    const SolveRequest request = sample_request(i);
    const auto outcome = client.solve(request, i, &error);
    ASSERT_TRUE(outcome) << error;
    ASSERT_TRUE(outcome->result);
  }
  FrameHeader header;
  std::string payload;
  for (std::uint64_t i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.call(MsgType::kPing, 100 + i, "x", &header, &payload,
                            &error))
        << error;
  }
  // The Stats request returns the registry snapshot; every count the
  // client observed must be present exactly.
  ASSERT_TRUE(
      client.call(MsgType::kStats, 999, "", &header, &payload, &error))
      << error;
  ASSERT_EQ(header.type, MsgType::kStatsOk);
  const auto expect_counter = [&](const std::string& name,
                                  std::uint64_t want) {
    const std::string needle =
        "\"" + name + "\": " + std::to_string(want);
    EXPECT_NE(payload.find(needle), std::string::npos)
        << "missing `" << needle << "` in:\n"
        << payload;
  };
  expect_counter("svc.requests_solve", kSolves);
  expect_counter("svc.replies_solve_ok", kSolves);
  expect_counter("svc.requests_ping", kPings);
  expect_counter("engine.instances_solved", kSolves);
  expect_counter("svc.shed_overloaded", 0);
  expect_counter("svc.bad_requests", 0);
  // The same registry backs the in-process snapshot (--metrics-json path).
  EXPECT_EQ(ts.registry().counter("svc.requests_solve").value(), kSolves);
  EXPECT_EQ(ts.registry().counter("svc.requests_stats").value(), 1u);
  // Request latency percentiles cover exactly the solve replies and are
  // sane: positive, ordered, and at least the engine's own solve time.
  const auto snap =
      ts.registry().histogram("svc.request_latency_ms").snapshot();
  EXPECT_EQ(snap.count, kSolves);
  EXPECT_GT(snap.p50, 0.0);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
}

// ---------------------------------------------------------------------------
// Multi-reactor tests (reactors > 1, engine_workers > 1). Also run under
// TSan in CI: reactors, the acceptor and engine workers all race here.
// ---------------------------------------------------------------------------

std::uint64_t reactor_counter_sum(obs::Registry& registry,
                                  std::size_t reactors,
                                  const std::string& suffix) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < reactors; ++i) {
    sum += registry
               .counter("svc.reactor" + std::to_string(i) + "." + suffix)
               .value();
  }
  return sum;
}

TEST(MultiReactor, ConnectionsDistributeRoundRobinAcrossReactors) {
  constexpr std::size_t kReactors = 4;
  constexpr std::size_t kConns = 8;
  ServerOptions options;
  options.reactors = kReactors;
  TestServer ts(std::move(options));
  // Keep every connection open while counting: a closed connection stays
  // counted in connections_accepted, but holding them proves the counts
  // are not an accept/close race.
  std::vector<Client> clients;
  for (std::size_t i = 0; i < kConns; ++i) clients.push_back(ts.connect());
  ts.wait_for_counter("svc.connections_accepted", kConns);
  // The acceptor deals connections round-robin, so 8 connections over 4
  // reactors land exactly 2 on each.
  for (std::size_t i = 0; i < kReactors; ++i) {
    EXPECT_EQ(ts.registry()
                  .counter("svc.reactor" + std::to_string(i) +
                           ".connections_accepted")
                  .value(),
              kConns / kReactors)
        << "reactor " << i;
  }
  EXPECT_EQ(reactor_counter_sum(ts.registry(), kReactors,
                                "connections_accepted"),
            ts.registry().counter("svc.connections_accepted").value());
}

TEST(MultiReactor, AcceptedCountsCoverEveryAnsweredConnection) {
  constexpr std::size_t kReactors = 4;
  constexpr std::uint64_t kRounds = 200;
  ServerOptions options;
  options.reactors = kReactors;
  TestServer ts(std::move(options));
  // A connection is counted before its reactor can answer it, so the
  // counts already cover every connection whose Pong came back.
  for (std::uint64_t answered = 1; answered <= kRounds; ++answered) {
    Client client = ts.connect();
    FrameHeader header;
    std::string payload, error;
    ASSERT_TRUE(client.call(MsgType::kPing, answered, "x", &header, &payload,
                            &error))
        << error;
    ASSERT_EQ(header.type, MsgType::kPong);
    ASSERT_EQ(ts.registry().counter("svc.connections_accepted").value(),
              answered);
    ASSERT_EQ(reactor_counter_sum(ts.registry(), kReactors,
                                  "connections_accepted"),
              answered);
  }
}

TEST(MultiReactor, PerReactorCountersReconcileWithAggregates) {
  constexpr std::size_t kReactors = 4;
  constexpr int kClients = 4;
  constexpr std::uint64_t kSolvesPerClient = 3;
  ServerOptions options;
  options.reactors = kReactors;
  options.engine_workers = 2;
  TestServer ts(std::move(options));
  // One connection per reactor (round-robin), each solving concurrently;
  // replies must stay byte-identical to the serial solver even with four
  // reactors framing and two engine workers ticking at once.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&ts, &failures, c] {
      Client client = ts.connect();
      for (std::uint64_t i = 0; i < kSolvesPerClient; ++i) {
        const std::size_t index = static_cast<std::size_t>(c) * 10 + i;
        const SolveRequest request = sample_request(index);
        std::string error;
        const auto outcome = client.solve(request, index, &error);
        if (!outcome || !outcome->result ||
            outcome->raw_payload != expected_reply_payload(request)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The Stats snapshot carries the per-reactor rows, so operators see the
  // shard balance through the same endpoint as the aggregates.
  {
    Client client = ts.connect();
    FrameHeader header;
    std::string payload, error;
    ASSERT_TRUE(
        client.call(MsgType::kStats, 999, "", &header, &payload, &error))
        << error;
    ASSERT_EQ(header.type, MsgType::kStatsOk);
    for (std::size_t i = 0; i < kReactors; ++i) {
      const std::string row =
          "svc.reactor" + std::to_string(i) + ".requests_solve";
      EXPECT_NE(payload.find(row), std::string::npos)
          << "missing `" << row << "` in stats snapshot";
    }
  }
  // Drained, the per-reactor rows must sum to the aggregates. Not before:
  // a reactor counts bytes_out only after send() returns, so a client can
  // hold its last reply before either count has moved.
  ts.finish();
  const std::uint64_t total = kClients * kSolvesPerClient;
  EXPECT_EQ(ts.registry().counter("svc.requests_solve").value(), total);
  EXPECT_EQ(reactor_counter_sum(ts.registry(), kReactors, "requests_solve"),
            total);
  EXPECT_EQ(reactor_counter_sum(ts.registry(), kReactors, "bytes_in"),
            ts.registry().counter("svc.bytes_in").value());
  EXPECT_EQ(reactor_counter_sum(ts.registry(), kReactors, "bytes_out"),
            ts.registry().counter("svc.bytes_out").value());
  EXPECT_GT(ts.registry().counter("svc.bytes_in").value(), 0u);
}

TEST(MultiReactor, DrainAnswersInFlightOnEveryReactorBeforeAck) {
  constexpr std::size_t kReactors = 4;
  ServerOptions options;
  options.reactors = kReactors;
  options.engine_workers = 2;
  options.tick_delay_ms = 50;  // keep all four solves in flight
  TestServer ts(std::move(options));
  // Sequential connects deal one connection to each reactor; pipeline one
  // PTAS solve (never inline) per connection so every reactor holds a
  // request in flight on the engine.
  std::vector<Client> clients;
  std::vector<SolveRequest> requests;
  std::string error;
  for (std::size_t i = 0; i < kReactors; ++i) {
    clients.push_back(ts.connect());
    requests.push_back(engine_request(i));
    ASSERT_TRUE(clients[i].send_frame(MsgType::kSolve, i + 1,
                                      encode_solve_request(requests[i]),
                                      &error))
        << error;
  }
  // All four are admitted (draining has not started), then the drain
  // arrives on the first connection.
  ts.wait_for_counter("svc.requests_solve", kReactors);
  ASSERT_TRUE(clients[0].send_frame(MsgType::kDrain, 99, "", &error));
  // Every reactor flushes its reply before the server exits; the draining
  // connection sees its reply strictly before DrainOk (same FIFO buffer).
  for (std::size_t i = 0; i < kReactors; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(clients[i].recv_frame(&header, &payload, &error))
        << "conn " << i << ": " << error;
    EXPECT_EQ(header.request_id, i + 1);
    ASSERT_EQ(header.type, MsgType::kSolveOk) << "conn " << i;
    EXPECT_EQ(payload, expected_reply_payload(requests[i])) << "conn " << i;
  }
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(clients[0].recv_frame(&header, &payload, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kDrainOk);
  ts.join_drained();
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(),
            static_cast<std::uint64_t>(kReactors));
  EXPECT_EQ(ts.registry().counter("svc.dropped_replies").value(), 0u);
}

TEST(MultiReactor, SigtermDrainsInFlightOnEveryReactor) {
  constexpr std::size_t kReactors = 4;
  ServerOptions options;
  options.reactors = kReactors;
  options.engine_workers = 2;
  options.tick_delay_ms = 50;
  TestServer ts(std::move(options));
  install_signal_drain(&ts.server());
  std::vector<Client> clients;
  std::vector<SolveRequest> requests;
  std::string error;
  for (std::size_t i = 0; i < kReactors; ++i) {
    clients.push_back(ts.connect());
    requests.push_back(engine_request(20 + i));
    ASSERT_TRUE(clients[i].send_frame(MsgType::kSolve, 50 + i,
                                      encode_solve_request(requests[i]),
                                      &error))
        << error;
  }
  // SIGTERM lands while a request is pending on every reactor (the PTAS
  // never runs inline, and the 50 ms tick delay keeps them queued); the
  // drain must flush all four replies through all four reactors before
  // run() returns.
  ts.wait_for_counter("svc.requests_solve", kReactors);
  raise(SIGTERM);
  for (std::size_t i = 0; i < kReactors; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(clients[i].recv_frame(&header, &payload, &error))
        << "conn " << i << ": " << error;
    EXPECT_EQ(header.request_id, 50 + i);
    EXPECT_EQ(header.type, MsgType::kSolveOk) << "conn " << i;
    EXPECT_EQ(payload, expected_reply_payload(requests[i])) << "conn " << i;
    // EOF after the flush: the reactor closed the connection on exit.
    EXPECT_FALSE(clients[i].recv_frame(&header, &payload, &error));
  }
  ts.join_drained();
  install_signal_drain(nullptr);
  EXPECT_EQ(ts.registry().counter("svc.replies_solve_ok").value(),
            static_cast<std::uint64_t>(kReactors));
  EXPECT_EQ(ts.registry().counter("svc.dropped_replies").value(), 0u);
}

TEST(SvcLoopback, TcpListenerServesTheSameProtocol) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  TestServer ts(std::move(options));
  ASSERT_GT(ts.server().tcp_port(), 0);
  std::string error;
  auto client = Client::connect(
      Endpoint::tcp("127.0.0.1", ts.server().tcp_port()), &error);
  ASSERT_TRUE(client) << error;
  const SolveRequest request = sample_request(8);
  const auto outcome = client->solve(request, 77, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  EXPECT_EQ(outcome->raw_payload, expected_reply_payload(request));
}

TEST(SvcClient, TcpPortOutsideOneTo65535IsRefused) {
  std::string error;
  const auto endpoint = parse_tcp_endpoint("127.0.0.1:7733", &error);
  ASSERT_TRUE(endpoint) << error;
  EXPECT_EQ(endpoint->tcp_host, "127.0.0.1");
  EXPECT_EQ(endpoint->tcp_port, 7733);
  EXPECT_TRUE(endpoint->unix_path.empty());
  for (const char* text :
       {"127.0.0.1", "127.0.0.1:", "127.0.0.1:80x", "127.0.0.1: 80",
        "127.0.0.1:+80", "127.0.0.1:0", "127.0.0.1:-1", "127.0.0.1:65536",
        "127.0.0.1:110527"}) {
    error.clear();
    EXPECT_FALSE(parse_tcp_endpoint(text, &error)) << text;
    EXPECT_NE(error.find(text), std::string::npos) << error;
  }
  // Client::connect checks the range itself instead of letting the port
  // wrap through uint16_t (110527 would connect to 44991).
  for (const int port : {0, -1, 65536, 110527}) {
    error.clear();
    EXPECT_FALSE(Client::connect(Endpoint::tcp("127.0.0.1", port), &error))
        << port;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace lrb::svc
