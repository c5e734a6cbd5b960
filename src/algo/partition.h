// Algorithm PARTITION from SPAA'03 §3: the 1.5-approximation for load
// rebalancing, given a guess T of the optimal makespan.
//
// Jobs of size strictly greater than T/2 are "large". With L_T large jobs,
// m_L processors holding at least one and L_E = L_T - m_L extras:
//
//   Step 1: on every processor keep only its smallest large job (L_E
//           removals).
//   Step 2: per processor compute
//             a_i = min #small jobs to drop so remaining small total <= T/2
//             b_i = min #jobs to drop so remaining total <= T
//             c_i = a_i - b_i.
//   Step 3: select the L_T processors with smallest c_i (ties prefer
//           processors holding a large job); drop the a_i largest small jobs
//           from each.
//   Step 4: from the other m - L_T processors drop the b_i largest jobs.
//           (When b_i >= 1 this always evicts the processor's large job, if
//           any, because the large job is its largest; when b_i = 0 a large
//           job that already fits within T stays put, which only saves
//           moves and keeps that processor's load <= T.) Removed large jobs
//           go to distinct large-free selected processors.
//   Step 5: place the large jobs from Step 1 on the remaining large-free
//           selected processors.
//   Step 6: place the removed small jobs greedily (largest first) on the
//           currently min-loaded processor.
//
// Counting slots: with g selected processors holding large jobs and h
// non-selected large jobs evicted in Step 4, g + h <= m_L, so the
// L_T - g = L_E + (m_L - g) large-free selected slots always suffice for the
// L_E + h placements. The construction therefore succeeds structurally for
// ANY T with L_T <= m; whether the implied number of removals is within the
// move budget is the caller's acceptance test (see m_partition.h).
//
// Guarantees (tested): if T >= OPT then total removals <= the moves of any
// optimal k-move solution (Lemmas 3-4), and the final makespan is at most
// max-load <= T/2 + max(T, max_job) on large-carrying processors and
// <= avg + T/2 elsewhere - i.e. <= 1.5 * OPT whenever T <= OPT holds too
// (Theorems 2-3).

#pragma once

#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/proc_order.h"

namespace lrb {

struct PartitionOutcome {
  /// False iff more large jobs than processors (T certainly below OPT).
  bool feasible = false;
  /// The rebalanced solution (valid only when feasible).
  RebalanceResult result;
  /// Total job removals performed in Steps 1-4: the paper's acceptance
  /// quantity k-hat. Actual relocations (result.moves) never exceed it.
  std::int64_t removals = 0;
  Size threshold = 0;
  std::int64_t large_total = 0;  ///< L_T
  std::int64_t large_extra = 0;  ///< L_E
  std::vector<std::int64_t> a;   ///< per-processor a_i
  std::vector<std::int64_t> b;   ///< per-processor b_i
};

/// Runs PARTITION at the given makespan guess. threshold >= 0.
[[nodiscard]] PartitionOutcome partition_rebalance_at(const Instance& instance,
                                                      Size threshold);

/// The same, over `instance`'s prebuilt size order: no sort of its own.
[[nodiscard]] PartitionOutcome partition_rebalance_at(const Instance& instance,
                                                      const ProcOrder& order,
                                                      Size threshold);

/// One processor's PARTITION quantities at a guess T.
struct PartitionCounts {
  std::int64_t num_small = 0;  ///< jobs with 2 * size <= T
  std::int64_t num_large = 0;  ///< jobs with 2 * size > T
  std::int64_t a = 0;          ///< a_i
  std::int64_t b = 0;          ///< b_i, counted after Step 1
};

/// Processor p's counts at `threshold`, by binary search over its ascending
/// group: the small jobs are a prefix, and after Step 1 the processor holds
/// that prefix plus, if it has any large job, the smallest one. O(log n_p).
/// PARTITION and M-PARTITION's incremental scan share this definition.
[[nodiscard]] PartitionCounts partition_counts(const ProcOrder& order, ProcId p,
                                               Size threshold);

}  // namespace lrb
