// Certified lower bounds on the optimal rebalanced makespan. Used to bound
// approximation ratios on instances too large for the exact solver.

#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/proc_order.h"
#include "core/types.h"

namespace lrb {

/// ceil(total size / m): the fractional-relaxation bound. Valid for any
/// move budget because total load is invariant under relocation.
[[nodiscard]] Size average_load_bound(const Instance& instance);

/// Largest job size: jobs are indivisible, so some processor carries it.
[[nodiscard]] Size max_job_bound(const Instance& instance);

/// Lemma 1's bound: the makespan after removing the k jobs chosen by
/// "repeat k times: drop the largest job from the max-loaded processor" is
/// the minimum over ALL ways of deleting k jobs, hence <= OPT (deleting the
/// optimum's relocated jobs from the initial configuration leaves load
/// <= OPT everywhere, and greedy removal is the best deletion). O(n log n).
[[nodiscard]] Size k_removal_bound(const Instance& instance, std::int64_t k);

/// The same bound over a prebuilt size order: O(m + k log m).
[[nodiscard]] Size k_removal_bound(const ProcOrder& order, std::int64_t k);

/// Budget version of the removal bound: the smallest T such that the summed
/// per-processor FRACTIONAL min-cost of trimming each processor's load to T
/// is within the budget. The optimum's relocated set costs <= B and trims
/// every processor to <= OPT, and the fractional relaxation only
/// underestimates trimming cost, so the returned T is <= OPT.
/// O(n log n + n log(initial makespan)).
[[nodiscard]] Size budget_removal_bound(const Instance& instance, Cost budget);

/// max(average_load_bound, max_job_bound, k_removal_bound).
[[nodiscard]] Size combined_lower_bound(const Instance& instance,
                                        std::int64_t k);

/// The same bound, read entirely from a prebuilt size order.
[[nodiscard]] Size combined_lower_bound(const ProcOrder& order, std::int64_t k);

}  // namespace lrb
