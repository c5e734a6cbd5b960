// Algorithm M-PARTITION from SPAA'03 §3.1: PARTITION without knowing OPT.
//
// The execution of PARTITION is piecewise-constant in the guess T between
// the candidate thresholds of thresholds.h. M-PARTITION scans candidates
// upward from a certified lower bound and commits to the first guess whose
// implied removal count k-hat is within the move budget k. Because
// k-hat(OPT) <= k (Lemmas 3-4: PARTITION never removes more jobs than an
// optimal k-move schedule), the accepted guess is <= OPT and the resulting
// makespan is <= 1.5 * OPT (Theorem 3).
//
// Two implementations are provided:
//  - m_partition_rebalance: the paper's O(n log n) scheme. k-hat is
//    maintained incrementally: each threshold event touches exactly one
//    processor's (a_i, b_i) or one job's large/small classification, and
//    "sum of the L_T smallest c_i" is answered by a Fenwick tree indexed by
//    c-value. One full PARTITION run happens only at the accepted guess.
//    An overload takes an MPartitionScratch arena so that repeat solving
//    (the batch engine's steady state) performs no heap allocation in the
//    scan. The scan runs on the calling thread: it usually accepts within a
//    few guesses, so the engine parallelizes across instances instead
//    (docs/performance.md).
//  - m_partition_rebalance_reference: re-runs PARTITION at every candidate
//    (O(n^2 log n) worst case). Used for differential testing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/partition.h"
#include "algo/thresholds.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "core/proc_order.h"

namespace lrb {

struct MPartitionStats {
  Size accepted_threshold = 0;    ///< the committed OPT guess (<= OPT)
  Size start_threshold = 0;       ///< scan start (certified lower bound)
  std::int64_t removals = 0;      ///< k-hat at the accepted guess
  std::size_t guesses_evaluated = 0;
};

/// Reusable working set for the threshold scan. Every per-instance buffer
/// of m_partition_rebalance lands in these vectors, so a warmed scratch
/// makes steady-state solving allocation-free in the scan hot path (the
/// certified lower bound and the single committed PARTITION construction
/// still allocate their per-solve temporaries and the returned assignment).
struct MPartitionScratch {
  /// The instance's per-processor size order. The instance-only overloads
  /// build it here; the ProcOrder overloads read the order they are given,
  /// which may be this one.
  ProcOrder order;
  std::vector<ThresholdEvent> events;
  // Mutable per-processor scan state at the current guess.
  std::vector<std::int64_t> num_large;
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  // Fenwick-tree storage for the c-selector.
  std::vector<std::int64_t> sel_cnt;
  std::vector<std::int64_t> sel_sum;

  /// Pre-sizes every buffer for instances up to (max_jobs, max_procs);
  /// solving any instance within those bounds then never reallocates.
  void warm(std::size_t max_jobs, ProcId max_procs);
};

/// The O(n log n) M-PARTITION. Relocates at most k jobs; makespan is at
/// most 1.5 * OPT(k).
[[nodiscard]] RebalanceResult m_partition_rebalance(const Instance& instance,
                                                    std::int64_t k,
                                                    MPartitionStats* stats = nullptr);

/// Scratch-arena variant: bit-identical to the plain overload, but all scan
/// buffers live in (and are reused from) `scratch`.
[[nodiscard]] RebalanceResult m_partition_rebalance(const Instance& instance,
                                                    std::int64_t k,
                                                    MPartitionScratch& scratch,
                                                    MPartitionStats* stats = nullptr);

/// The scratch-arena variant over `instance`'s prebuilt size order (which
/// may be `scratch.order`): the lower bound, the event list and the
/// committed PARTITION all read it, and nothing is sorted per processor.
[[nodiscard]] RebalanceResult m_partition_rebalance(const Instance& instance,
                                                    const ProcOrder& order,
                                                    std::int64_t k,
                                                    MPartitionScratch& scratch,
                                                    MPartitionStats* stats = nullptr);

/// Reference implementation: full PARTITION per candidate threshold.
[[nodiscard]] RebalanceResult m_partition_rebalance_reference(
    const Instance& instance, std::int64_t k, MPartitionStats* stats = nullptr);

}  // namespace lrb
