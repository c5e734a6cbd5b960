// Chaos campaigns: seeded end-to-end fault drills for the rebalancing
// service, shared by tools/lrb_chaos and tests/test_chaos.
//
// One campaign = one in-process Server behind a server-side FaultInjector
// plus N ResilientClient threads behind client-side injectors, all driven
// from a single campaign seed:
//
//   campaign seed ─┬─> FaultPlan for the server's socket IO
//                  ├─> FaultPlan for the clients' socket IO
//                  ├─> the request workload (mixed corpus instances)
//                  └─> every backoff jitter stream
//
// so a failing campaign replays from (seed, plan) alone. The campaign
// asserts the service's whole resilience contract:
//
//   * every request reaches exactly one outcome (zero lost, zero
//     duplicated in-flight requests, across retries, resets and drains);
//   * every completed Solve reply is byte-identical to
//     engine::solve_serial_reference on the same instance — or, with
//     cache_bytes set, to engine::cached_serial_reference, proving the
//     solution cache never serves a stale or mis-permuted reply no matter
//     which faults, retries or re-solves happened in between;
//   * no client ever gives up (the plan caps total disruptions, so
//     bounded retry must always get through).
//
// With restart_server set, the backend is drained and a fresh Server is
// started on the same socket mid-campaign; clients must ride across the
// restart on their reconnect path.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solver/spec.h"
#include "svc/fault/fault.h"
#include "svc/retry_client.h"

namespace lrb::svc::fault {

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::size_t clients = 2;
  std::size_t requests_per_client = 8;
  /// Backend + parameters for every campaign Solve (and the session
  /// trigger in streaming mode), resolved through the solver registry.
  solver::SolverSpec solver;
  /// Byte-compare every completed reply against the serial reference.
  bool check = true;
  /// Drain the server mid-campaign and restart it on the same socket.
  bool restart_server = false;
  /// BatchSolver pool size inside the server under test
  /// (ServerOptions::engine.workers).
  std::size_t engine_workers = 2;
  /// Reactor shards for the server under test (ServerOptions::reactors):
  /// > 1 spreads the campaign's client connections across event-loop
  /// threads, so the faulted framing/flush paths run concurrently.
  std::size_t reactors = 1;
  /// Engine tick workers for the server under test
  /// (ServerOptions::engine_workers): > 1 runs concurrent BatchSolver
  /// ticks while the byte-identity check stays in force.
  std::size_t tick_workers = 1;
  /// Solution cache budget for the server under test; 0 = cache off.
  /// With a cache, `check` compares against cached_serial_reference (and a
  /// restart additionally proves a cold cache answers identically to the
  /// warm one it replaced).
  std::size_t cache_bytes = 0;
  /// Per-request retry policy; jitter_seed is re-derived from the
  /// campaign seed per client.
  RetryPolicy retry;

  /// Streaming-session mode (docs/streaming.md): when > 0 the campaign
  /// runs this many concurrent SESSIONS (one run_session_stream thread each)
  /// instead of one-shot Solves. Each session streams a seeded delta log
  /// under fault injection; `check` byte-compares every ack against the
  /// serial replay mirror, and the final server-side session stats must
  /// equal the mirror's — the zero-lost / zero-duplicated DELTA ledger
  /// (an injected reset can only ever force a dedup'd resend, never a
  /// re-apply). restart_server is ignored here: sessions are server
  /// state and die with it by design.
  std::size_t stream_sessions = 0;
  std::size_t deltas_per_session = 64;
};

struct CampaignResult {
  bool ok = false;
  FaultPlan server_plan;
  FaultPlan client_plan;
  std::size_t requests = 0;   ///< issued = clients * requests_per_client
  std::size_t completed = 0;  ///< SolveOk outcomes delivered
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t server_solves = 0;  ///< server-side svc.replies_solve_ok
  FaultStats server_faults;
  FaultStats client_faults;
  std::vector<std::string> errors;  ///< mismatches, lost/dup ids, give-ups

  /// One status line, e.g.
  /// "seed=0x2a ok: 16/16 completed, 3 retries, 11+7 faults".
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& options);

/// Derives the seed of campaign `index` from a base seed (what
/// lrb_chaos --campaigns iterates).
[[nodiscard]] std::uint64_t campaign_seed(std::uint64_t base_seed,
                                          std::uint64_t index);

}  // namespace lrb::svc::fault
