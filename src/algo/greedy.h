// Algorithm GREEDY from SPAA'03 §2: the (2 - 1/m)-approximation for the
// unit-cost load rebalancing problem in O(n log n).
//
//   Step 1: repeat k times - remove the largest job from the currently
//           max-loaded processor.
//   Step 2: place the removed jobs, each onto the currently min-loaded
//           processor, in an arbitrary order.
//
// Theorem 1 shows the ratio 2 - 1/m is tight; the reinsertion order only
// affects constants on benign instances, so we expose it for the tightness
// experiment (E1).

#pragma once

#include <cstdint>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/proc_order.h"

namespace lrb {

enum class GreedyOrder {
  kAsRemoved,      ///< FIFO: first removed is first reinserted
  kLargestFirst,   ///< LPT-style: usually best in practice
  kSmallestFirst,  ///< adversarial for Theorem 1's tight family
};

struct GreedyStats {
  /// Max load after Step 1 (the paper's G1). Lemma 1: G1 <= OPT, so this is
  /// a per-run certified lower bound on the optimum.
  Size g1 = 0;
  /// #jobs actually removed in Step 1 (< k if processors ran out of jobs).
  std::int64_t removed = 0;
};

/// Runs GREEDY with move budget k. The result relocates at most k jobs.
[[nodiscard]] RebalanceResult greedy_rebalance(
    const Instance& instance, std::int64_t k,
    GreedyOrder reinsertion = GreedyOrder::kLargestFirst,
    GreedyStats* stats = nullptr);

/// The same, over `instance`'s prebuilt size order: no sort of its own.
[[nodiscard]] RebalanceResult greedy_rebalance(
    const Instance& instance, const ProcOrder& order, std::int64_t k,
    GreedyOrder reinsertion = GreedyOrder::kLargestFirst,
    GreedyStats* stats = nullptr);

}  // namespace lrb
