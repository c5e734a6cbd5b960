// The parallel batch-solving engine: fans a stream of rebalancing
// instances across a ThreadPool with per-worker reusable Scratch arenas.
// Each instance is solved serially on one thread; the parallelism is
// across instances (docs/performance.md says why there is no
// intra-instance path).
//
// Backend selection is a solver::SolverSpec resolved through the solver
// registry (solver/registry.h, docs/solvers.md); the engine itself
// contains no per-algorithm dispatch — it only supplies the scratch
// arenas to the registry's solve().
//
// Determinism contract: for a fixed (instances, ks, spec) input, solve()
// returns results byte-identical to calling the serial entry points one
// instance at a time, for every worker count and across repeated runs.
// The scratch arenas are bit-identical to fresh allocation by
// construction (see m_partition.h / ptas.h), and inter-instance
// parallelism never reorders results: slot i of the output is always
// instance i's result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/solution_cache.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "engine/scratch.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "util/thread_pool.h"

namespace lrb::engine {

/// Arena pre-sizing: instances within these bounds never reallocate in the
/// scan hot path; larger ones grow the arena they run in. The server reads
/// the same pair to decide which Solves a reactor answers inline
/// (svc/server.h).
inline constexpr std::size_t kWarmJobs = std::size_t{1} << 12;
inline constexpr ProcId kWarmProcs = 64;

/// The serial reference every concurrent path is checked against: the
/// registry's serial entry point for `spec` (no pool, no arenas). Shared
/// by lrb_batch --check, lrb_load --check and the tests.
[[nodiscard]] RebalanceResult solve_serial_reference(
    const solver::SolverSpec& spec, const Instance& instance, std::int64_t k);

/// The serial reference for every CACHE-ENABLED path: canonicalize, solve
/// the canonical instance serially, and map the plan back through the
/// recorded permutations (docs/caching.md). The cache-enabled engine is
/// byte-identical to this — on a cold miss and on a warm hit alike — so
/// checkers compare against it whenever the cache is on. For an instance
/// that is already in canonical form it coincides with
/// solve_serial_reference.
[[nodiscard]] RebalanceResult cached_serial_reference(
    const solver::SolverSpec& spec, const Instance& instance, std::int64_t k);

struct BatchOptions {
  std::size_t workers = 0;  ///< pool size; 0 = hardware concurrency
  /// Backend + parameters for solve(); per-item entry points carry their
  /// own spec.
  solver::SolverSpec spec;
  /// Metrics sink ("engine.*" counters and latency histogram). Defaults to
  /// the process-wide registry; tests and embedding servers may pass their
  /// own. Never read on a path that affects results.
  obs::Registry* metrics = &obs::Registry::global();
  /// Byte budget for the canonicalizing solution cache; 0 disables it.
  /// With the cache on, every solve goes canonicalize → probe → (solve
  /// canonical on miss) → map back, so results are byte-identical to
  /// cached_serial_reference whether they were served cold or warm.
  std::size_t cache_bytes = 0;
  /// Shard count for the solution cache (rounded up to a power of two).
  std::size_t cache_shards = 8;
};

class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
  [[nodiscard]] const BatchOptions& options() const noexcept {
    return options_;
  }

  /// Solves instance i with move budget ks[i] (ks.size() must equal
  /// instances.size()). Slot i of the returned vector is instance i's
  /// result. When `latencies_ms` is non-null it is resized and filled with
  /// each instance's own wall-clock latency in milliseconds, the same
  /// sample engine.solve_latency_ms records: with the cache enabled, that
  /// is canonicalize, probe, wait for or run the solve, and map back.
  [[nodiscard]] std::vector<RebalanceResult> solve(
      const std::vector<Instance>& instances,
      const std::vector<std::int64_t>& ks,
      std::vector<double>* latencies_ms = nullptr);

  /// One request of a serving tick: a borrowed instance plus a per-request
  /// solver spec (the serving layer mixes backends within a tick).
  struct TickItem {
    const Instance* instance = nullptr;
    std::int64_t k = 0;
    solver::SolverSpec spec;
  };

  /// Same determinism contract over borrowed instances with per-item
  /// parameters: the tick entry point used by the serving layer
  /// (src/svc), which coalesces in-flight requests without copying their
  /// instances. All instance pointers must be non-null. One parallel_for
  /// over solve_item's per-item path; with the cache enabled, identical
  /// keys — in one tick, in concurrent ticks, or beside a solve_item
  /// caller — share one solve through the cache's single-flight.
  [[nodiscard]] std::vector<RebalanceResult> solve_items(
      std::span<const TickItem> items,
      std::vector<double>* latencies_ms = nullptr);

  /// One item with per-item parameters, solved on the calling thread: the
  /// entry a reactor uses for a session replan (svc's SessionTable) and
  /// for a Solve it answers inline. It never touches the pool, so it never
  /// runs another caller's queued items first. It solves in `arena` (a
  /// cache miss included) and then never touches the engine's free list;
  /// with nullptr it leases an arena from that list, on a cache miss only.
  /// With the cache enabled, an identical key that another thread is
  /// solving is waited for, not solved again. The result is byte-identical
  /// to solve_items over a single-element span (the same per-item path),
  /// and it counts one batch, one engine.solve_latency_ms sample and,
  /// unless the cache answers, one solved instance.
  [[nodiscard]] RebalanceResult solve_item(const TickItem& item,
                                           Scratch* arena = nullptr);

  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }
  /// The embedded solution cache, or nullptr when cache_bytes == 0.
  [[nodiscard]] cache::SolutionCache* solution_cache() noexcept {
    return cache_.get();
  }

 private:
  /// RAII lease on a Scratch arena from the free list. An empty list
  /// mints a fresh arena, so any number of submitting threads can solve
  /// at once without waiting for an arena.
  class ScratchLease {
   public:
    explicit ScratchLease(BatchSolver& owner);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] Scratch& get() noexcept { return *scratch_; }

   private:
    BatchSolver& owner_;
    std::unique_ptr<Scratch> scratch_;
  };

  /// Runs the item through the registry in `arena`, or in a leased one
  /// when it is null, plus a debug-build makespan recheck.
  [[nodiscard]] RebalanceResult run_item(const TickItem& item, Scratch* arena);
  /// The one way the engine solves an item, on the calling thread. With
  /// the cache enabled: canonicalize, probe (blocking on an identical
  /// in-flight key), solve a miss through run_item, publish, and map
  /// back. Records the item's latency in engine.solve_latency_ms and,
  /// when `latency_ms` is non-null, there too.
  [[nodiscard]] RebalanceResult solve_one(const TickItem& item,
                                          Scratch* arena, double* latency_ms);

  BatchOptions options_;
  ThreadPool pool_;
  std::unique_ptr<cache::SolutionCache> cache_;
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Scratch>> free_scratch_;
  // Engine observability (hot-path wait-free; see obs/metrics.h).
  obs::Counter& solved_counter_;
  obs::Counter& batch_counter_;
  obs::Histogram& solve_latency_ms_;
};

}  // namespace lrb::engine
