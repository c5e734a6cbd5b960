// The load rebalancing instance: n jobs with sizes and relocation costs,
// initially assigned to m processors (SPAA'03, Definition 1).

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"

namespace lrb {

/// An immutable problem instance. `sizes[j]`, `move_costs[j]` and
/// `initial[j]` describe job j; `num_procs` is m. The unit-cost problem
/// (relocate at most k jobs) is the special case move_costs[j] == 1.
struct Instance {
  std::vector<Size> sizes;
  std::vector<Cost> move_costs;
  std::vector<ProcId> initial;
  ProcId num_procs = 0;

  [[nodiscard]] std::size_t num_jobs() const noexcept { return sizes.size(); }

  /// Sum of all job sizes (invariant under rebalancing).
  [[nodiscard]] Size total_size() const noexcept;

  /// Largest job size; 0 for an empty instance. A lower bound on any
  /// achievable makespan since jobs are indivisible.
  [[nodiscard]] Size max_job() const noexcept;

  /// Per-processor loads of the initial assignment.
  [[nodiscard]] std::vector<Size> initial_loads() const;

  /// Makespan of the initial assignment (the k = 0 answer).
  [[nodiscard]] Size initial_makespan() const;

  /// Job ids residing on each processor initially.
  [[nodiscard]] std::vector<std::vector<JobId>> jobs_by_proc() const;

  /// True if every job has unit relocation cost.
  [[nodiscard]] bool unit_costs() const noexcept;
};

/// Convenience constructor: unit costs, explicit per-job initial processors.
[[nodiscard]] Instance make_instance(std::vector<Size> sizes,
                                     std::vector<ProcId> initial,
                                     ProcId num_procs);

/// Convenience constructor with explicit per-job costs.
[[nodiscard]] Instance make_instance(std::vector<Size> sizes,
                                     std::vector<Cost> move_costs,
                                     std::vector<ProcId> initial,
                                     ProcId num_procs);

/// Structural validation: matching vector lengths, m >= 1, sizes >= 0,
/// total size < kInfSize, costs >= 0, initial processors in range. Returns
/// an error description or nullopt when valid.
[[nodiscard]] std::optional<std::string> validate(const Instance& instance);

}  // namespace lrb
