// Every processor's initial jobs in ascending size order: the one sort that
// GREEDY (§2), Lemma 1's removal bound and PARTITION / M-PARTITION (§3)
// all work from. GREEDY and the bound consume each group from its back
// (largest first); PARTITION's small set at a guess T is a prefix of it,
// and the prefix sums give Lemma 5's thresholds and the kept loads.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace lrb {

class ProcOrder {
 public:
  ProcOrder() = default;
  explicit ProcOrder(const Instance& instance) { build(instance); }

  /// Regroups `instance`'s jobs by initial processor (a counting sort),
  /// sorts each group ascending by (size, id) and fills the per-group
  /// inclusive prefix sums. Reuses the buffers' capacity, so rebuilding
  /// within reserved bounds allocates nothing.
  void build(const Instance& instance);

  /// Pre-sizes the buffers for instances up to (max_jobs, max_procs).
  void reserve(std::size_t max_jobs, ProcId max_procs);

  [[nodiscard]] ProcId num_procs() const noexcept {
    return offset_.empty() ? 0 : static_cast<ProcId>(offset_.size() - 1);
  }
  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }

  /// Processor p's job ids, ascending by (size, id).
  [[nodiscard]] std::span<const JobId> jobs(ProcId p) const {
    return {jobs_.data() + offset_[p], offset_[p + 1] - offset_[p]};
  }
  /// Their sizes, in the same order.
  [[nodiscard]] std::span<const Size> sizes(ProcId p) const {
    return {sizes_.data() + offset_[p], offset_[p + 1] - offset_[p]};
  }
  /// Inclusive prefix sums of sizes(p): prefix(p)[i] is the total size of
  /// p's i + 1 smallest jobs.
  [[nodiscard]] std::span<const Size> prefix(ProcId p) const {
    return {prefix_.data() + offset_[p], offset_[p + 1] - offset_[p]};
  }
  /// Total size of p's `count` smallest jobs.
  [[nodiscard]] Size head_load(ProcId p, std::size_t count) const {
    return count == 0 ? 0 : prefix_[offset_[p] + count - 1];
  }
  /// p's initial load.
  [[nodiscard]] Size load(ProcId p) const {
    return head_load(p, offset_[p + 1] - offset_[p]);
  }

 private:
  std::vector<JobId> jobs_;
  std::vector<Size> sizes_;
  std::vector<Size> prefix_;
  std::vector<std::size_t> offset_;  ///< m + 1 group boundaries once built
};

}  // namespace lrb
