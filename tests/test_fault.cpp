// Unit tests for the fault-injection subsystem (src/svc/fault) plus the
// pinned regression tests for the two latent server bugs the IO shim
// surfaced:
//
//   * handle_readable treated EINTR as EOF and closed the connection;
//   * handle_writable treated EINTR as a vanished peer and dropped the
//     entire buffered reply.
//
// The regressions are driven by tiny deterministic shims (no randomness),
// so a failure here is exactly reproducible. The seeded-injector tests
// assert the core FaultInjector contract: per-connection fault schedules
// are a pure function of (seed, plan, stream registration order), caps
// bound disruption, and corruption is always detectable (magic/version
// bytes only).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/fault/fault.h"
#include "svc/fault/io_shim.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace lrb::svc::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan.
// ---------------------------------------------------------------------------

TEST(FaultPlan, FromSeedIsDeterministic) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    const FaultPlan a = FaultPlan::from_seed(seed);
    const FaultPlan b = FaultPlan::from_seed(seed);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.short_read, b.short_read);
    EXPECT_EQ(a.eintr, b.eintr);
    EXPECT_EQ(a.partial_write, b.partial_write);
    EXPECT_EQ(a.conn_reset, b.conn_reset);
    EXPECT_EQ(a.abrupt_close, b.abrupt_close);
    EXPECT_EQ(a.corrupt, b.corrupt);
    EXPECT_EQ(a.max_disruptions_per_conn, b.max_disruptions_per_conn);
    EXPECT_EQ(a.max_disruptions_total, b.max_disruptions_total);
  }
  EXPECT_NE(FaultPlan::from_seed(1).describe(),
            FaultPlan::from_seed(2).describe());
}

TEST(FaultPlan, FromSeedKeepsCampaignsSurvivable) {
  // The derivation must keep every seed's plan inside the survivable
  // envelope: at least one fault kind active (the plan is never a no-op),
  // lethal kinds rare, caps finite and nonzero.
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const FaultPlan plan = FaultPlan::from_seed(seed);
    const double any = plan.short_read + plan.eintr + plan.partial_write +
                       plan.conn_reset + plan.abrupt_close + plan.corrupt;
    EXPECT_GT(any, 0.0) << plan.describe();
    EXPECT_LE(plan.short_read, 0.35);
    EXPECT_LE(plan.eintr, 0.35);
    EXPECT_LE(plan.partial_write, 0.35);
    EXPECT_LE(plan.conn_reset, 0.03) << plan.describe();
    EXPECT_LE(plan.abrupt_close, 0.03) << plan.describe();
    EXPECT_LE(plan.corrupt, 0.08) << plan.describe();
    EXPECT_GE(plan.max_disruptions_per_conn, 1u);
    EXPECT_GE(plan.max_disruptions_total, plan.max_disruptions_per_conn);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector on a socketpair.
// ---------------------------------------------------------------------------

struct Pair {
  int a = -1;  ///< driven through the injector
  int b = -1;  ///< the raw peer
  Pair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~Pair() {
    if (a >= 0) close(a);
    if (b >= 0) close(b);
  }
};

/// Drains `want` payload bytes from pair.a via the injector in 16-byte
/// asks (many decision draws), recording each recv outcome as (n, errno)
/// — the stream's observable schedule.
std::vector<std::pair<ssize_t, int>> recv_schedule(FaultInjector& injector,
                                                   Pair& pair,
                                                   std::size_t want) {
  std::vector<std::pair<ssize_t, int>> schedule;
  std::size_t got = 0;
  char buf[16];
  while (got < want && schedule.size() < 10'000) {
    errno = 0;
    const ssize_t n = injector.recv(pair.a, buf, sizeof buf);
    schedule.emplace_back(n, n < 0 ? errno : 0);
    if (n > 0) got += static_cast<std::size_t>(n);
    if (n == 0 || (n < 0 && errno != EINTR)) break;
  }
  return schedule;
}

TEST(FaultInjector, RecvScheduleReplaysFromSeed) {
  FaultPlan plan;
  plan.seed = 7;
  plan.short_read = 0.5;
  plan.eintr = 0.3;
  plan.max_disruptions_per_conn = 8;
  plan.max_disruptions_total = 8;

  const std::string data(256, 'x');
  std::vector<std::vector<std::pair<ssize_t, int>>> runs;
  std::vector<std::uint64_t> fault_counts;
  for (int run = 0; run < 2; ++run) {
    obs::Registry registry;
    FaultInjector injector(plan, &registry);
    Pair pair;
    ASSERT_EQ(send(pair.b, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
    runs.push_back(recv_schedule(injector, pair, data.size()));
    fault_counts.push_back(registry.counter("svc.faults_injected").value());
  }
  // Same plan, fresh injector, fresh socketpair: byte-identical schedule
  // and identical fault spend (the fd numbers may differ; the stream
  // index is what matters).
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(fault_counts[0], fault_counts[1]);
  EXPECT_GT(fault_counts[0], 0u);
  EXPECT_LE(fault_counts[0], 8u);
}

TEST(FaultInjector, PerConnCapLimitsDisruptions) {
  FaultPlan plan;
  plan.seed = 3;
  plan.eintr = 1.0;  // every recv would be interrupted...
  plan.max_disruptions_per_conn = 3;  // ...but only 3 times
  plan.max_disruptions_total = 100;
  obs::Registry registry;
  FaultInjector injector(plan, &registry);
  Pair pair;
  ASSERT_EQ(send(pair.b, "hello", 5, 0), 5);

  char buf[16];
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(injector.recv(pair.a, buf, sizeof buf), -1);
    EXPECT_EQ(errno, EINTR);
  }
  EXPECT_EQ(injector.recv(pair.a, buf, sizeof buf), 5);
  EXPECT_EQ(registry.counter("fault.eintr").value(), 3u);
}

TEST(FaultInjector, TotalCapSharedAcrossStreams) {
  FaultPlan plan;
  plan.seed = 3;
  plan.eintr = 1.0;
  plan.max_disruptions_per_conn = 100;
  plan.max_disruptions_total = 4;
  obs::Registry registry;
  FaultInjector injector(plan, &registry);
  Pair one, two;
  ASSERT_EQ(send(one.b, "a", 1, 0), 1);
  ASSERT_EQ(send(two.b, "b", 1, 0), 1);

  // With eintr=1.0 every recv is interrupted until the shared budget of 4
  // is spent; recv until the payload actually lands on each stream (never
  // past it — a clean recv on a drained socket would block).
  char buf[4];
  int injected = 0;
  for (Pair* pair : {&one, &two}) {
    ssize_t n = -1;
    while (n < 0) {
      errno = 0;
      n = injector.recv(pair->a, buf, sizeof buf);
      if (n < 0) {
        ASSERT_EQ(errno, EINTR);
        ++injected;
      }
      ASSERT_LT(injected, 20);
    }
    EXPECT_EQ(n, 1);
  }
  // The shared budget is 4; everything after runs clean.
  EXPECT_EQ(injected, 4);
  EXPECT_EQ(registry.counter("svc.faults_injected").value(), 4u);
}

TEST(FaultInjector, CorruptionIsAlwaysDetectable) {
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt = 1.0;
  plan.max_disruptions_per_conn = 1;
  plan.max_disruptions_total = 1;
  obs::Registry registry;
  FaultInjector injector(plan, &registry);
  Pair pair;

  std::string frame;
  encode_frame(frame, MsgType::kPing, 42, "payload");
  ASSERT_EQ(send(pair.b, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::string got(frame.size(), '\0');
  ASSERT_EQ(injector.recv(pair.a, got.data(), got.size()),
            static_cast<ssize_t>(frame.size()));
  ASSERT_EQ(registry.counter("fault.corrupt").value(), 1u);
  ASSERT_NE(got, frame);

  // Exactly one flipped bit, and it lives in the magic/version bytes, so
  // the frame decodes as kBadMagic or kBadVersion — never as a silently
  // different valid message.
  int flipped_bits = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const unsigned char diff =
        static_cast<unsigned char>(frame[i] ^ got[i]);
    if (diff != 0) {
      flipped_bits += __builtin_popcount(diff);
      EXPECT_LT(i, 6u) << "corruption outside magic/version bytes";
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  FrameHeader header;
  const DecodeStatus status = decode_header(got, &header);
  EXPECT_TRUE(status == DecodeStatus::kBadMagic ||
              status == DecodeStatus::kBadVersion);
}

TEST(FaultInjector, LethalFaultWakesThePeer) {
  FaultPlan plan;
  plan.seed = 5;
  plan.conn_reset = 1.0;
  plan.max_disruptions_per_conn = 1;
  plan.max_disruptions_total = 1;
  obs::Registry registry;
  FaultInjector injector(plan, &registry);
  Pair pair;
  ASSERT_EQ(send(pair.b, "x", 1, 0), 1);

  char buf[4];
  errno = 0;
  EXPECT_EQ(injector.recv(pair.a, buf, sizeof buf), -1);
  EXPECT_EQ(errno, ECONNRESET);
  // The injector shut the real socket down, so the peer sees EOF instead
  // of blocking forever on a connection that will never speak again.
  EXPECT_EQ(::recv(pair.b, buf, sizeof buf, 0), 0);
  // And the dead stream stays dead: later IO fails without re-spending.
  EXPECT_EQ(injector.recv(pair.a, buf, sizeof buf), -1);
  EXPECT_EQ(registry.counter("svc.faults_injected").value(), 1u);
}

// ---------------------------------------------------------------------------
// Pinned server regressions (deterministic shims, no randomness).
// ---------------------------------------------------------------------------

std::string fault_socket_path() {
  static int counter = 0;
  return "/tmp/lrb_fault_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

class ShimServer {
 public:
  explicit ShimServer(SocketIo* io) {
    path_ = fault_socket_path();
    ServerOptions options;
    options.unix_path = path_;
    options.metrics = &registry_;
    options.engine.workers = 2;
    options.io = io;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~ShimServer() {
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

/// Fails the first recv per fd with EINTR, passes everything else through.
/// Pinned repro for the old handle_readable bug (EINTR mistaken for EOF:
/// the server closed the connection instead of retrying).
class EintrFirstRecvIo final : public SocketIo {
 public:
  ssize_t recv(int fd, void* buf, std::size_t len) override {
    if (seen_.insert(fd).second) {
      errno = EINTR;
      return -1;
    }
    return SocketIo::real().recv(fd, buf, len);
  }

 private:
  std::set<int> seen_;
};

TEST(SvcFaultRegression, ServerRecvSurvivesEintr) {
  EintrFirstRecvIo io;
  ShimServer ts(&io);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(ts.path()), &error);
  ASSERT_TRUE(client) << error;
  FrameHeader header;
  std::string payload;
  // Before the fix this died here: the server's first recv on the new
  // connection hit the injected EINTR and closed it as if it were EOF.
  ASSERT_TRUE(client->call(MsgType::kPing, 1, "still here", &header,
                           &payload, &error))
      << error;
  EXPECT_EQ(header.type, MsgType::kPong);
  EXPECT_EQ(payload, "still here");
}

/// Fails the first send per fd with EINTR. Pinned repro for the old
/// handle_writable bug (EINTR treated as a vanished peer: the whole
/// buffered reply was dropped and the connection closed).
class EintrFirstSendIo final : public SocketIo {
 public:
  ssize_t send(int fd, const void* buf, std::size_t len) override {
    if (seen_.insert(fd).second) {
      errno = EINTR;
      return -1;
    }
    return SocketIo::real().send(fd, buf, len);
  }

 private:
  std::set<int> seen_;
};

TEST(SvcFaultRegression, ServerSendSurvivesEintr) {
  EintrFirstSendIo io;
  ShimServer ts(&io);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(ts.path()), &error);
  ASSERT_TRUE(client) << error;

  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(0, 42);
  request.k = 5;
  // Before the fix the reply never arrived: the injected EINTR on the
  // server's first send dropped the buffered SolveOk frame.
  const auto outcome = client->solve(request, 9, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  const auto reference = engine::solve_serial_reference(
      request.spec, request.instance, request.k);
  EXPECT_EQ(outcome->raw_payload, encode_solve_reply_payload(reference));
}

/// Clamps every recv and send to one byte: the worst legal TCP behavior.
/// The server's framing must reassemble requests and deliver replies
/// regardless of how the stream is sliced.
class ByteAtATimeIo final : public SocketIo {
 public:
  ssize_t recv(int fd, void* buf, std::size_t len) override {
    return SocketIo::real().recv(fd, buf, len == 0 ? 0 : 1);
  }
  ssize_t send(int fd, const void* buf, std::size_t len) override {
    return SocketIo::real().send(fd, buf, len == 0 ? 0 : 1);
  }
};

TEST(SvcFaultRegression, ServerFramesSurviveByteAtATimeIo) {
  ByteAtATimeIo io;
  ShimServer ts(&io);
  std::string error;
  auto client = Client::connect(Endpoint::unix_socket(ts.path()), &error);
  ASSERT_TRUE(client) << error;

  SolveRequest request;
  request.spec = solver::BackendId::kGreedy;
  request.instance = mixed_corpus_instance(3, 7);
  request.k = 3;
  const auto outcome = client->solve(request, 77, &error);
  ASSERT_TRUE(outcome) << error;
  ASSERT_TRUE(outcome->result);
  const auto reference = engine::solve_serial_reference(
      request.spec, request.instance, request.k);
  EXPECT_EQ(outcome->raw_payload, encode_solve_reply_payload(reference));
}

}  // namespace
}  // namespace lrb::svc::fault
