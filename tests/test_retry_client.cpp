// The retrying client's decision table, pinned against a scripted peer:
// for every kind of reply (or non-reply) an attempt can meet, which ones
// retry on the same connection, which reconnect, and which are final —
// for each request layer (Solve, Ping, a session call), with the exact
// client.* counters each decision leaves behind. Plus the retrying client
// end to end over TCP.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "stream/delta_log.h"
#include "stream/trace.h"
#include "svc/retry_client.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "svc/wire.h"

namespace lrb::svc {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/lrb_retry_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ---------------------------------------------------------------------------
// The scripted peer: a Unix-socket listener thread that answers each frame
// it reads with the next step of its script, across connections.

enum class Act {
  kAnswer,         ///< the layer's OK reply under the request's id
  kAnswerWrongId,  ///< the layer's OK reply under a different id
  kError,          ///< an Error reply with `code`
  kRaw,            ///< a reply of `type` carrying `payload`
  kClose,          ///< close the connection without replying
  kSilent,         ///< read the frame and never answer it
};

struct Step {
  Act act = Act::kAnswer;
  ErrorCode code = ErrorCode::kInternal;
  MsgType type = MsgType::kError;
  std::string payload;
};

Step act(Act what) {
  Step step;
  step.act = what;
  return step;
}
Step answer() { return act(Act::kAnswer); }
Step answer_wrong_id() { return act(Act::kAnswerWrongId); }
Step close_conn() { return act(Act::kClose); }
Step silent() { return act(Act::kSilent); }
Step error_reply(ErrorCode code) {
  Step step = act(Act::kError);
  step.code = code;
  return step;
}
Step raw_reply(MsgType type, std::string payload) {
  Step step = act(Act::kRaw);
  step.type = type;
  step.payload = std::move(payload);
  return step;
}

class ScriptedPeer {
 public:
  ScriptedPeer(std::vector<Step> script, MsgType ok_type,
               std::string ok_payload)
      : path_(unique_socket_path()),
        script_(std::move(script)),
        ok_type_(ok_type),
        ok_payload_(std::move(ok_payload)) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof addr.sun_path - 1);
    unlink(path_.c_str());
    if (listen_fd_ < 0 ||
        bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
        listen(listen_fd_, 8) != 0) {
      ADD_FAILURE() << "scripted peer could not listen on " << path_;
      return;
    }
    thread_ = std::thread([this] { serve(); });
  }

  ~ScriptedPeer() {
    finish();
    if (listen_fd_ >= 0) close(listen_fd_);
    unlink(path_.c_str());
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  /// Stops the peer; the counters below are final once this returns.
  void finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }
  /// The request id of every frame the peer read, in order.
  [[nodiscard]] const std::vector<std::uint64_t>& request_ids() const {
    return request_ids_;
  }

 private:
  /// Waits until `fd` is readable; false once the peer is stopping.
  bool wait_readable(int fd) {
    while (!stop_) {
      pollfd entry{fd, POLLIN, 0};
      if (poll(&entry, 1, 10) > 0) return true;
    }
    return false;
  }

  void serve() {
    while (wait_readable(listen_fd_)) {
      const int conn = accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) continue;
      ++accepted_;
      serve_connection(conn);
      close(conn);
    }
  }

  /// Answers frames on one connection until it closes or a step closes it.
  void serve_connection(int conn) {
    std::string buffer;
    for (;;) {
      FrameHeader header;
      while (decode_header(buffer, &header) != DecodeStatus::kOk ||
             buffer.size() < kHeaderSize + header.payload_len) {
        if (!wait_readable(conn)) return;
        char chunk[4096];
        const ssize_t n = recv(conn, chunk, sizeof chunk, 0);
        if (n <= 0) return;
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      buffer.erase(0, kHeaderSize + header.payload_len);
      request_ids_.push_back(header.request_id);
      if (next_ >= script_.size()) return;
      const Step& step = script_[next_++];
      std::string frame;
      switch (step.act) {
        case Act::kAnswer:
          encode_frame(frame, ok_type_, header.request_id, ok_payload_);
          break;
        case Act::kAnswerWrongId:
          encode_frame(frame, ok_type_, header.request_id + 1, ok_payload_);
          break;
        case Act::kError:
          encode_frame(frame, MsgType::kError, header.request_id,
                       encode_error_payload(step.code, "scripted"));
          break;
        case Act::kRaw:
          encode_frame(frame, step.type, header.request_id, step.payload);
          break;
        case Act::kClose:
          return;
        case Act::kSilent:
          continue;
      }
      if (send(conn, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
        return;
      }
    }
  }

  std::string path_;
  std::vector<Step> script_;
  MsgType ok_type_;
  std::string ok_payload_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::size_t next_ = 0;
  std::size_t accepted_ = 0;
  std::vector<std::uint64_t> request_ids_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The three request layers over the retry loop.

enum class Layer { kSolve, kPing, kSession };

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSolve:
      return "solve";
    case Layer::kPing:
      return "ping";
    case Layer::kSession:
      return "session";
  }
  return "?";
}

constexpr std::uint64_t kRequestId = 1;
constexpr std::size_t kMaxAttempts = 3;

SolveRequest solve_request() {
  SolveRequest request;
  request.spec = solver::BackendId::kGreedy;
  request.instance = make_instance({3, 2}, {0, 0}, 2);
  request.k = 1;
  return request;
}

/// The OK reply type and a well-formed payload of it, per layer.
MsgType ok_type(Layer layer) {
  switch (layer) {
    case Layer::kSolve:
      return MsgType::kSolveOk;
    case Layer::kPing:
      return MsgType::kPong;
    case Layer::kSession:
      return MsgType::kSessionOpenOk;
  }
  return MsgType::kError;
}

std::string ok_payload(Layer layer) {
  switch (layer) {
    case Layer::kSolve: {
      RebalanceResult result;
      result.assignment = {0, 1};
      result.makespan = 3;
      result.moves = 1;
      return encode_solve_reply_payload(result);
    }
    case Layer::kPing:
      return "";
    case Layer::kSession: {
      SessionOpenReply reply;
      reply.session_id = 7;
      reply.makespan = 5;
      reply.lower_bound = 3;
      return encode_session_open_reply(reply);
    }
  }
  return "";
}

/// A layer that answers with another layer's reply type.
Layer other_layer(Layer layer) {
  switch (layer) {
    case Layer::kSolve:
      return Layer::kSession;
    case Layer::kPing:
      return Layer::kSolve;
    case Layer::kSession:
      return Layer::kPing;
  }
  return layer;
}

enum class Kind { kAnswered, kFinal, kGaveUp };

struct Outcome {
  Kind kind = Kind::kGaveUp;
  /// kFinal: "server error: <code>: <text>"; kGaveUp: the give-up error.
  std::string error;
};

/// The outcome of a call-based layer: answered, or a final server error.
Outcome outcome_of(const std::optional<ErrorReply>& server_error) {
  Outcome outcome;
  outcome.kind = Kind::kAnswered;
  if (server_error) {
    outcome.kind = Kind::kFinal;
    outcome.error = std::string("server error: ") +
                    error_code_name(server_error->code) + ": " +
                    server_error->text;
  }
  return outcome;
}

RetryPolicy table_policy(std::uint32_t timeout_ms) {
  RetryPolicy policy;
  policy.max_attempts = kMaxAttempts;
  policy.connect_timeout_ms = 2000;
  policy.solve_timeout_ms = timeout_ms;
  policy.backoff_base_ms = 0;
  return policy;
}

/// One logical request through `layer`, under request id kRequestId.
/// `attempts` receives the client's own attempt count where the layer
/// reports one.
Outcome drive(Layer layer, const std::string& path, const RetryPolicy& policy,
              obs::Registry* metrics, std::optional<std::size_t>* attempts) {
  Outcome gave_up;
  ResilientClient client(Endpoint::unix_socket(path), policy, metrics);
  switch (layer) {
    case Layer::kSolve: {
      const auto reply = client.solve(solve_request(), kRequestId,
                                      &gave_up.error);
      if (!reply) return gave_up;
      *attempts = reply->attempts;
      return outcome_of(reply->server_error);
    }
    case Layer::kPing: {
      std::string error;
      if (client.ping(kRequestId, &error)) return outcome_of(std::nullopt);
      const bool is_final = error.rfind("server error: ", 0) == 0;
      return {is_final ? Kind::kFinal : Kind::kGaveUp, error};
    }
    case Layer::kSession: {
      SessionOpenRequest request;
      request.session_id = 7;
      request.instance = make_instance({3, 2}, {0, 0}, 2);
      const auto reply =
          client.call(MsgType::kSessionOpen, kRequestId,
                      encode_session_open_request(request), &gave_up.error);
      if (!reply) return gave_up;
      *attempts = reply->attempts;
      return outcome_of(reply->server_error);
    }
  }
  return gave_up;
}

/// One row of the decision table: what the peer does on each attempt, and
/// what the client must make of it.
struct Row {
  std::vector<Step> script;
  Kind kind = Kind::kAnswered;
  std::size_t attempts = 1;     ///< frames sent, one per attempt
  std::size_t connections = 1;  ///< connections the peer accepted
  std::uint64_t timeouts = 0;
  std::string error;  ///< Outcome::error, unless Kind::kAnswered
  std::uint32_t timeout_ms = 5000;
};

void check_row(Layer layer, const Row& row) {
  SCOPED_TRACE(layer_name(layer));
  ScriptedPeer peer(row.script, ok_type(layer), ok_payload(layer));
  obs::Registry metrics;
  std::optional<std::size_t> attempts;
  const Outcome outcome = drive(layer, peer.path(),
                                table_policy(row.timeout_ms), &metrics,
                                &attempts);
  peer.finish();

  ASSERT_EQ(outcome.kind, row.kind) << outcome.error;
  if (row.kind != Kind::kAnswered) {
    EXPECT_EQ(outcome.error, row.error);
  }
  if (attempts) {
    EXPECT_EQ(*attempts, row.attempts);
  }
  EXPECT_EQ(peer.request_ids().size(), row.attempts);
  for (const std::uint64_t id : peer.request_ids()) {
    EXPECT_EQ(id, kRequestId) << "every attempt reuses the request id";
  }
  EXPECT_EQ(peer.accepted(), row.connections);
  EXPECT_EQ(metrics.counter("client.connects").value(), row.connections);
  EXPECT_EQ(metrics.counter("client.reconnects").value(),
            row.connections - 1);
  EXPECT_EQ(metrics.counter("client.retries").value(), row.attempts - 1);
  EXPECT_EQ(metrics.counter("client.timeouts").value(), row.timeouts);
  EXPECT_EQ(metrics.counter("client.gave_up").value(),
            row.kind == Kind::kGaveUp ? 1u : 0u);
}

constexpr Layer kAllLayers[] = {Layer::kSolve, Layer::kPing, Layer::kSession};

/// Answered on the second attempt over a second connection.
Row retried_on_fresh_connection(Step first) {
  Row row;
  row.script = {std::move(first), answer()};
  row.attempts = 2;
  row.connections = 2;
  return row;
}

// ---------------------------------------------------------------------------
// Rows every layer shares.

TEST(ResilientClient, AnsweredFirstTimeUsesOneAttempt) {
  Row row;
  row.script = {answer()};
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, WrongRequestIdRetriesOnAFreshConnection) {
  const Row row = retried_on_fresh_connection(answer_wrong_id());
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, PeerCloseRetriesOnAFreshConnection) {
  const Row row = retried_on_fresh_connection(close_conn());
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, SilencePastTheTimeoutRetriesOnAFreshConnection) {
  Row row = retried_on_fresh_connection(silent());
  row.timeouts = 1;
  row.timeout_ms = 250;
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, MalformedErrorPayloadRetriesOnAFreshConnection) {
  const Row row =
      retried_on_fresh_connection(raw_reply(MsgType::kError, "xy"));
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, GivesUpWithTheLastErrorWhenEveryAttemptFails) {
  Row row;
  row.script = {close_conn(), close_conn(), close_conn()};
  row.kind = Kind::kGaveUp;
  row.attempts = kMaxAttempts;
  row.connections = kMaxAttempts;
  row.error = "gave up after 3 attempts: connection closed by server";
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

// ---------------------------------------------------------------------------
// Server errors: one table for every layer, Ping included.

TEST(ResilientClient, OverloadedRetriesOnTheSameConnection) {
  Row row;
  row.script = {error_reply(ErrorCode::kOverloaded), answer()};
  row.attempts = 2;
  row.connections = 1;
  for (const Layer layer : kAllLayers) check_row(layer, row);
}

TEST(ResilientClient, DrainingBadRequestAndInternalReconnect) {
  for (const ErrorCode code : {ErrorCode::kDraining, ErrorCode::kBadRequest,
                               ErrorCode::kInternal}) {
    SCOPED_TRACE(error_code_name(code));
    const Row row = retried_on_fresh_connection(error_reply(code));
    for (const Layer layer : kAllLayers) check_row(layer, row);
  }
}

TEST(ResilientClient, DeadlineAndSessionErrorsAreFinalAfterOneAttempt) {
  for (const ErrorCode code :
       {ErrorCode::kDeadlineExceeded, ErrorCode::kUnknownSession,
        ErrorCode::kSessionExists, ErrorCode::kBadSequence,
        ErrorCode::kSessionClosed}) {
    SCOPED_TRACE(error_code_name(code));
    Row row;
    row.script = {error_reply(code)};
    row.kind = Kind::kFinal;
    row.error =
        std::string("server error: ") + error_code_name(code) + ": scripted";
    for (const Layer layer : kAllLayers) check_row(layer, row);
  }
}

// ---------------------------------------------------------------------------
// Replies that cannot be the answer.

TEST(ResilientClient, ReplyOfAnotherTypeRetriesOnAFreshConnection) {
  for (const Layer layer : kAllLayers) {
    const Layer other = other_layer(layer);
    check_row(layer, retried_on_fresh_connection(
                         raw_reply(ok_type(other), ok_payload(other))));
  }
}

TEST(ResilientClient, AnswerPayloadThatDoesNotDecodeRetriesOnAFreshConnection) {
  // A Pong echoes the Ping payload, so any bytes decode: no Ping row.
  for (const Layer layer : {Layer::kSolve, Layer::kSession}) {
    check_row(layer, retried_on_fresh_connection(
                         raw_reply(ok_type(layer), "xy")));
  }
}

// ---------------------------------------------------------------------------
// The retrying client end to end over TCP.

/// A real server listening on an ephemeral loopback TCP port only.
class TcpServer {
 public:
  TcpServer() {
    ServerOptions options;
    options.tcp_port = 0;
    options.metrics = &registry_;
    options.engine.workers = 2;
    options.reactors = 2;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~TcpServer() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
  }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] Endpoint endpoint() const {
    return Endpoint::tcp("127.0.0.1", server_->tcp_port());
  }

 private:
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

TEST(ResilientClient, SolvesAndStreamsSessionsOverTcp) {
  TcpServer server;
  obs::Registry metrics;
  ResilientClient client(server.endpoint(), {}, &metrics);
  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(3, 9);
  request.k = 4;
  std::string error;
  const auto outcome = client.solve(request, 1, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  EXPECT_EQ(outcome->raw_payload,
            encode_solve_reply_payload(engine::solve_serial_reference(
                request.spec, request.instance, request.k)));

  stream::TriggerConfig trigger;
  trigger.spec = solver::BackendId::kBestOf;
  trigger.imbalance_ratio = 1.5;
  trigger.delta_count = 16;
  stream::TraceOptions trace;
  trace.num_events = 60;
  trace.departure_fraction = 0.4;
  const stream::DeltaLog log = stream::delta_log_from_trace(
      mixed_corpus_instance(1, 9), stream::random_trace(trace, 4), trigger);
  StreamRunOptions run;
  run.endpoint = server.endpoint();
  run.frame_size = 5;
  run.reconnect_every = 2;
  run.metrics = &metrics;
  const StreamRunResult result = run_session_stream(log, run);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.frames_sent, 12u);
  EXPECT_GE(metrics.counter("client.reconnects").value(), 5u);
}

}  // namespace
}  // namespace lrb::svc
