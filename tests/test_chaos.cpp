// End-to-end tests for the chaos campaign engine (src/svc/fault/chaos)
// and the resilient retry client (src/svc/retry_client):
//
//   * a seeded campaign completes with every reply byte-identical to the
//     serial solver and zero lost/duplicated requests;
//   * a campaign with a mid-run server restart rides across it on the
//     client's reconnect path;
//   * re-running a seed reproduces the same fault plans (the replay
//     contract lrb_chaos prints on failure);
//   * a ResilientClient survives its server being killed and restarted
//     between requests, and gives up cleanly when no server exists.
//
// These suites also run under TSan in CI (clients, server event loop and
// engine workers all race through the injector).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "svc/fault/chaos.h"
#include "svc/retry_client.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace lrb::svc::fault {
namespace {

TEST(Chaos, CampaignCompletesWithByteIdenticalReplies) {
  CampaignOptions options;
  options.seed = 0x5eed;
  options.clients = 2;
  options.requests_per_client = 4;
  options.check = true;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.server_solves, result.completed);
}

TEST(Chaos, RestartCampaignRidesAcrossServerRestart) {
  CampaignOptions options;
  options.seed = 0xdead;
  options.clients = 2;
  options.requests_per_client = 4;
  options.check = true;
  options.restart_server = true;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  // Every client held a connection across the restart, so each one must
  // have reconnected at least once.
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, CacheEnabledCampaignNeverServesStaleOrMisPermutedReplies) {
  // The full fault battery with the solution cache turned on: every reply
  // — whether solved cold, handed over by an identical in-flight solve,
  // re-solved after a lost reply, or served straight from the warm cache
  // on a retry — must be byte-identical to engine::cached_serial_reference
  // for ITS OWN request labels. A stale entry, a wrong permutation
  // mapping, or a key mixup between retried requests would fail the
  // byte-compare.
  for (const std::uint64_t seed : {0xcac4eULL, 0xfeedULL, 0x31337ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.clients = 3;
    options.requests_per_client = 6;
    options.check = true;
    options.cache_bytes = std::size_t{4} << 20;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
  }
}

TEST(Chaos, CacheEnabledCampaignRidesAcrossServerRestart) {
  // Restarting mid-campaign swaps a warm cache for a cold one; because a
  // cached reply is a pure function of the request, clients must not be
  // able to tell (identical bytes before and after the restart).
  CampaignOptions options;
  options.seed = 0xbeefca;
  options.clients = 2;
  options.requests_per_client = 6;
  options.check = true;
  options.restart_server = true;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, MultiReactorCampaignCompletesWithByteIdenticalReplies) {
  // The sharded front-end under the full fault battery: four reactors
  // frame/flush concurrently and two engine workers run concurrent ticks,
  // yet every reply must still match the serial reference byte for byte,
  // with the ledger catching any lost or duplicated outcome.
  for (const std::uint64_t seed : {0x4eacULL, 0x70b5ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.clients = 4;
    options.requests_per_client = 4;
    options.check = true;
    options.reactors = 4;
    options.tick_workers = 2;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
    EXPECT_GE(result.server_solves, result.completed);
  }
}

TEST(Chaos, MultiReactorCampaignRidesAcrossServerRestart) {
  // Mid-campaign drain + cold restart of a 4-reactor server: the drain
  // must answer every in-flight request on every reactor before run()
  // returns, and the clients must reconnect into the fresh shards.
  CampaignOptions options;
  options.seed = 0x4eac7dead;
  options.clients = 4;
  options.requests_per_client = 4;
  options.check = true;
  options.restart_server = true;
  options.reactors = 4;
  options.tick_workers = 2;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, MultiReactorCacheEnabledCampaignStaysByteIdentical) {
  // Reactor sharding + concurrent ticks + the canonicalizing cache: the
  // single-flight and permutation paths now race across engine workers,
  // and the reference is cached_serial_reference for every reply.
  CampaignOptions options;
  options.seed = 0xcac4e4;
  options.clients = 3;
  options.requests_per_client = 6;
  options.check = true;
  options.reactors = 3;
  options.tick_workers = 2;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
}

TEST(ChaosStream, SessionCampaignKeepsTheDeltaLedgerIntact) {
  // Faults injected mid-session: every session stream rides resets and torn
  // frames on the exactly-once dedup path, every ack is byte-compared
  // against the serial replay mirror, and the campaign's final ledger
  // check proves no delta was lost or double-applied (server-side
  // stream.deltas_* totals equal the mirrors' exactly).
  for (const std::uint64_t seed : {0x57e4a1ULL, 0x57e4a2ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.check = true;
    options.stream_sessions = 3;
    options.deltas_per_session = 48;
    options.reactors = 2;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
  }
}

TEST(ChaosStream, CacheEnabledSessionCampaignStaysByteIdentical) {
  // Session replans flow through the canonicalizing solution cache; with
  // faults on, retried frames and cache hits must still reproduce the
  // cached serial replay byte for byte.
  CampaignOptions options;
  options.seed = 0x57ecac4e;
  options.check = true;
  options.stream_sessions = 2;
  options.deltas_per_session = 40;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
}

TEST(Chaos, SameSeedDerivesSamePlans) {
  CampaignOptions options;
  options.seed = 123;
  options.clients = 1;
  options.requests_per_client = 2;
  const CampaignResult a = run_campaign(options);
  const CampaignResult b = run_campaign(options);
  EXPECT_TRUE(a.ok) << a.summary();
  EXPECT_TRUE(b.ok) << b.summary();
  // The fault plans — everything needed to replay — are pure functions of
  // the seed. (Raw fault counts may drift with thread interleaving; the
  // campaign-level assertions hold under any schedule.)
  EXPECT_EQ(a.server_plan.describe(), b.server_plan.describe());
  EXPECT_EQ(a.client_plan.describe(), b.client_plan.describe());
}

TEST(Chaos, CampaignSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(campaign_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

// ---------------------------------------------------------------------------
// ResilientClient against a plain (fault-free) server.
// ---------------------------------------------------------------------------

std::string chaos_socket_path() {
  static int counter = 0;
  return "/tmp/lrb_chaos_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

class PlainServer {
 public:
  explicit PlainServer(const std::string& path) : path_(path) {
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

  ~PlainServer() { stop(); }

  void stop() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
  }

 private:
  std::string path_;
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

SolveRequest small_request(std::size_t index) {
  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(index, 9);
  request.k = 4;
  return request;
}

TEST(ResilientClient, ReconnectsAcrossServerKillAndRestart) {
  const std::string path = chaos_socket_path();
  obs::Registry metrics;
  RetryPolicy policy;
  policy.connect_timeout_ms = 2000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 20;
  ResilientClient client(Endpoint::unix_socket(path), policy, &metrics);

  auto server = std::make_unique<PlainServer>(path);
  std::string error;
  auto first = client.solve(small_request(0), 1, &error);
  ASSERT_TRUE(first) << error;
  ASSERT_TRUE(first->result);

  // Kill the server (graceful drain, socket unlinked is NOT done — the
  // path is reused) and bring up a fresh instance on the same path. The
  // client's cached connection is now a dead socket.
  server = nullptr;
  server = std::make_unique<PlainServer>(path);

  auto second = client.solve(small_request(1), 2, &error);
  ASSERT_TRUE(second) << error;
  ASSERT_TRUE(second->result);
  EXPECT_GE(second->attempts, 2u)
      << "the dead connection should have cost at least one attempt";
  EXPECT_GE(metrics.counter("client.reconnects").value(), 1u);
  EXPECT_GE(metrics.counter("client.retries").value(), 1u);

  server = nullptr;
  unlink(path.c_str());
}

TEST(ResilientClient, GivesUpCleanlyWithoutAServer) {
  obs::Registry metrics;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.connect_timeout_ms = 50;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;
  ResilientClient client(
      Endpoint::unix_socket("/tmp/lrb_chaos_no_such_socket.sock"), policy,
      &metrics);
  std::string error;
  const auto outcome = client.solve(small_request(0), 1, &error);
  EXPECT_FALSE(outcome);
  EXPECT_NE(error.find("gave up after 3 attempts"), std::string::npos)
      << error;
  EXPECT_EQ(metrics.counter("client.gave_up").value(), 1u);
  EXPECT_EQ(metrics.counter("client.retries").value(), 2u);
}

TEST(ResilientClient, PingRoundTrips) {
  const std::string path = chaos_socket_path();
  PlainServer server(path);
  obs::Registry metrics;
  ResilientClient client(Endpoint::unix_socket(path), {}, &metrics);
  std::string error;
  EXPECT_TRUE(client.ping(5, &error)) << error;
  EXPECT_EQ(metrics.counter("client.connects").value(), 1u);
}

}  // namespace
}  // namespace lrb::svc::fault
