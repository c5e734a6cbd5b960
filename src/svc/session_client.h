// run_session_stream: the one routine that lrb_stream, lrb_load --trace,
// the stream service tests and the chaos campaigns all use to stream a
// delta log at a server over the wire-v2 session protocol and (optionally)
// byte-compare every ack against stream::replay_serial_reference.
//
// Each logical frame (open, every delta frame, stats, close) is one
// ResilientClient::call (svc/retry_client.h) under its own request id, and
// every retry of that frame resends it byte for byte under the same id.
// That reuse is what the server's exactly-once dedup (docs/streaming.md)
// keys on: it answers a duplicate of the last applied frame with the
// stored reply bytes instead of re-applying it, so retries can never
// double-apply a delta.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "stream/delta_log.h"
#include "svc/fault/io_shim.h"
#include "svc/retry_client.h"

namespace lrb::svc {

struct StreamRunOptions {
  Endpoint endpoint;
  RetryPolicy retry;
  std::uint64_t session_id = 1;
  /// Deltas per SessionDelta frame (>= 1).
  std::size_t frame_size = 16;
  /// Drop the connection after every N delta frames (0 = never): the next
  /// frame reconnects and usually lands on a DIFFERENT reactor (round-robin
  /// dealing), which answers it from the shared session table; nothing is
  /// forwarded. Replies must stay byte-identical — pinning that is the
  /// point.
  std::size_t reconnect_every = 0;
  /// Byte-compare every ack (open, each delta frame, stats, close) against
  /// the locally mirrored stream::replay_serial_reference transcript.
  bool check = true;
  /// Mirror with engine::cached_serial_reference instead of
  /// solve_serial_reference — must match the server's cache_bytes setting
  /// (docs/caching.md), exactly like lrb_load --check.
  bool cached = false;
  obs::Registry* metrics = &obs::Registry::global();
  fault::SocketIo* io = &fault::SocketIo::real();
};

struct StreamRunResult {
  bool ok = false;
  std::string error;  ///< first failure (transport give-up or mismatch)
  std::size_t frames_sent = 0;
  std::size_t mismatches = 0;  ///< acks differing from the reference bytes
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_rejected = 0;
  std::uint64_t plans_emitted = 0;
  std::uint64_t moves_total = 0;
  Size final_makespan = 0;
  std::uint64_t final_digest = 0;
};

/// The id of the `index`-th session of one client run, from `seed` and a
/// nonce drawn once per process (its pid and a clock reading). A server
/// keeps a closed id as a tombstone (docs/streaming.md), so a rerun with
/// the same seed against the same server needs ids of its own. Distinct
/// indexes get distinct ids within a run.
[[nodiscard]] std::uint64_t run_session_id(std::uint64_t seed,
                                           std::size_t index);

/// Opens a session for `log.initial` + `log.trigger`, streams `log.deltas`
/// in frames of `frame_size`, fetches stats, and closes. With `check` on,
/// every reply payload must be byte-identical to the reply a serial replay
/// of the same deltas would produce (the determinism acceptance gate);
/// the final server-side stats must also match the mirror exactly — the
/// zero-lost / zero-duplicated delta ledger under retries and faults.
[[nodiscard]] StreamRunResult run_session_stream(
    const stream::DeltaLog& log, const StreamRunOptions& options);

}  // namespace lrb::svc
