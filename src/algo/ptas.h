// The PTAS for load rebalancing with arbitrary relocation costs and budget B
// (SPAA'03 §4): returns a solution of relocation cost <= B whose makespan is
// at most (1 + eps) * OPT(B), in time polynomial for fixed eps (but heavily
// exponential in 1/eps - use small instances or coarse eps).
//
// Implementation follows the paper's discretized dynamic program with one
// exact simplification: the paper's DP chooses each processor's rounded
// small-load capacity V' explicitly and threads an exact global budget V
// through the state. Since removal cost is non-increasing in V' and larger
// capacity only helps the final small-job placement, the maximal feasible
// capacity V'max = (W - sum of large class sizes) / u dominates every other
// choice; the V dimension therefore collapses to a saturating "small-load
// still to cover" counter. This changes no guarantee (our DP cost is <= the
// paper's DP cost, which is <= the optimal budget-B cost at a guess
// >= OPT-hat) and shrinks the state space considerably.
//
//   guess Â (geometric scan, step 1+delta, from certified lower bounds)
//   delta = eps / 5, u = max(1, floor(delta * Â)), W = (1 + 2*delta) * Â
//   large jobs (> delta * Â) round UP into classes L_t = ceil(delta*(1+delta)^t * Â)
//   DP over processors: state = (remaining class counts, remaining small
//   cover need); per processor enumerate class vectors with sum L <= W,
//   charge greedy removal cost (cheapest jobs per class; small jobs by
//   ascending cost/size ratio down to V'max*u + u).
//
// Final loads are <= W + u = (1 + 3*delta) * Â <= (1 + eps) * OPT for the
// accepted guess (Lemma 11 plus the guess granularity).
//
// The guess scan runs on the calling thread. It starts at certified lower
// bounds and usually accepts its first guess, so evaluating later guesses
// side by side would only waste work (docs/performance.md).
//
// Engine notes (see docs/performance.md, "PTAS state representation"): DP
// states are packed fixed-width integer keys (util/packed_key.h) living in
// per-layer arenas indexed by a flat open-addressing table
// (util/flat_hash.h); nodes carry only a cost and a uint32 parent index,
// and the per-processor choice vector is re-derived during reconstruction
// by differencing adjacent state keys. The class-vector enumeration is
// incremental branch-and-bound: partial eviction cost plus an optimistic
// remaining-classes bound prunes branches whose every completion would
// exceed the budget - exactly the transitions the unpruned DP would reject,
// so acceptance decisions, costs, state counts, and reconstructed
// assignments are bit-identical to the retained reference implementation
// (check/ptas_reference.h). Iteration over a layer is in state insertion
// order, which both engines share; that order is the determinism contract
// the differential suite (tools/lrb_fuzz --algo ptas) enforces.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "util/flat_hash.h"
#include "util/packed_key.h"

namespace lrb {

struct PtasOptions {
  Cost budget = kInfCost;  ///< the paper's B; kInfCost = unconstrained
  double eps = 1.0;        ///< target guarantee (1 + eps)
  std::size_t state_limit = 2'000'000;  ///< sparse-DP safety valve
};

struct PtasResult {
  /// False iff the state limit was exceeded (instance too large for the
  /// chosen eps); `result` is then the best fallback (identity).
  bool success = false;
  RebalanceResult result;
  Size accepted_guess = 0;
  std::size_t states = 0;         ///< DP states materialized (last guess)
  std::size_t guesses_evaluated = 0;
};

/// Reusable working memory for the PTAS DP. Every per-guess buffer -
/// classification, per-processor flattened class/small data, key codec,
/// layer arenas, hash tables, and enumeration temporaries - lives here, so
/// a warmed scratch makes the steady-state guess scan allocation-free: the
/// first solve of a given shape grows the arenas, repeats reuse them (the
/// same discipline as MPartitionScratch; the accepted guess's one-off
/// assignment reconstruction still allocates the returned solution).
struct PtasScratch {
  // ---- classification ----
  std::vector<std::int32_t> job_class;   ///< class of each job (-1 small)
  std::vector<std::int64_t> totals;      ///< global class counts
  std::vector<Size> class_size;          ///< rounded class ceilings L_t
  // ---- per-processor flattened segments ----
  std::vector<std::int64_t> proc_count;  ///< m*s large counts x_p[t]
  std::vector<JobId> class_jobs;         ///< large jobs by (proc, class, cost)
  std::vector<std::size_t> class_off;    ///< m*s+1 segment boundaries
  std::vector<Cost> class_prefix;        ///< per-segment eviction prefix sums
  std::vector<std::size_t> prefix_off;   ///< m*s+1 prefix segment boundaries
  std::vector<JobId> smalls;             ///< small jobs by (proc, cost/size)
  std::vector<std::size_t> small_off;    ///< m+1 segment boundaries
  std::vector<Size> small_size_prefix;
  std::vector<Cost> small_cost_prefix;
  std::vector<Size> small_total;         ///< m per-processor small loads
  std::vector<std::size_t> cursor;       ///< counting-sort fill positions
  // ---- DP state storage ----
  PackedKeyCodec codec;
  struct DpLayer {
    std::vector<std::uint64_t> keys;   ///< codec.words() words per state
    std::vector<Cost> cost;
    std::vector<std::uint32_t> parent; ///< index into the previous layer
    FlatIndexTable table;
  };
  std::vector<DpLayer> layers;           ///< m+1, reused across guesses
  // ---- enumeration temporaries ----
  std::vector<std::int64_t> rem;         ///< decoded source state
  std::vector<std::int64_t> next_vals;   ///< child state fields being built
  std::vector<Cost> tail_min;            ///< optimistic eviction cost suffix
  std::vector<std::uint64_t> key_words;
  std::vector<std::int64_t> maxima;      ///< codec planning input

  /// Pre-sizes the per-job / per-processor buffers for instances up to
  /// (max_jobs, max_procs) with up to `max_classes` large-size classes
  /// (~48 covers eps >= 0.25). DP layer arenas size themselves on first
  /// use and are retained, so repeat solves stay allocation-free.
  void warm(std::size_t max_jobs, ProcId max_procs,
            std::size_t max_classes = 48);
};

/// One DP guess evaluated in isolation - the unit the scan, the benchmark
/// harness (bench/bench_ptas), and the differential suite all speak.
struct PtasGuessOutcome {
  bool representable = false;  ///< guess >= max job and DP stayed in limits
  bool within_limit = true;
  bool constructed = false;    ///< assignment successfully reconstructed
  Cost cost = kInfCost;
  std::size_t states = 0;
  Assignment assignment;
};

[[nodiscard]] PtasResult ptas_rebalance(const Instance& instance,
                                        const PtasOptions& options);

/// Scratch-arena variant: bit-identical to the plain overload, but all DP
/// buffers live in (and are reused from) `scratch`.
[[nodiscard]] PtasResult ptas_rebalance(const Instance& instance,
                                        const PtasOptions& options,
                                        PtasScratch& scratch);

// ---- test / bench / differential hooks ------------------------------------

/// The guess-granularity delta for a target eps:
/// (1 + 3*delta) * (1 + delta) <= 1 + eps.
[[nodiscard]] double ptas_delta(double eps);

/// First guess of the scan (certified lower bounds), its geometric
/// successor, and the scan's hard stop. Shared by the scan and the reference
/// implementation so the two can never drift apart.
[[nodiscard]] Size ptas_scan_start(const Instance& instance, Cost budget);
[[nodiscard]] Size ptas_next_guess(Size guess, double delta);
[[nodiscard]] Size ptas_scan_stop(const Instance& instance);

/// Evaluates a single guess of the DP. With `reconstruct` false the
/// accepted assignment is not rebuilt, which keeps the call allocation-free
/// within warmed scratch bounds (the property tests/test_ptas_dp.cpp
/// asserts with an allocation-counting hook).
[[nodiscard]] PtasGuessOutcome ptas_probe_guess(const Instance& instance,
                                                Size guess, double eps,
                                                Cost budget,
                                                std::size_t state_limit,
                                                PtasScratch& scratch,
                                                bool reconstruct = false);

}  // namespace lrb
