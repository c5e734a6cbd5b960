#include "algo/partition.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

namespace lrb {

PartitionCounts partition_counts(const ProcOrder& order, ProcId p,
                                 Size threshold) {
  const auto sizes = order.sizes(p);
  const auto prefix = order.prefix(p);
  const auto twice_exceeds = [](Size t, Size value) { return t < 2 * value; };
  PartitionCounts out;
  const auto r = std::upper_bound(sizes.begin(), sizes.end(), threshold,
                                  twice_exceeds) -
                 sizes.begin();
  out.num_small = r;
  out.num_large = static_cast<std::int64_t>(sizes.size()) - r;
  // a: longest small prefix with 2 * sum <= T.
  const auto small_keep =
      std::upper_bound(prefix.begin(), prefix.begin() + r, threshold,
                       twice_exceeds) -
      prefix.begin();
  out.a = r - small_keep;
  // b: longest prefix of the post-Step-1 jobs with sum <= T.
  const std::int64_t kept = r + (out.num_large > 0 ? 1 : 0);
  const auto all_keep =
      std::upper_bound(prefix.begin(), prefix.begin() + kept, threshold) -
      prefix.begin();
  out.b = kept - all_keep;
  return out;
}

PartitionOutcome partition_rebalance_at(const Instance& instance,
                                        Size threshold) {
  return partition_rebalance_at(instance, ProcOrder(instance), threshold);
}

PartitionOutcome partition_rebalance_at(const Instance& instance,
                                        const ProcOrder& order,
                                        Size threshold) {
  assert(threshold >= 0);
  const Size T = threshold;
  const ProcId m = instance.num_procs;

  PartitionOutcome out;
  out.threshold = T;

  Assignment assignment = instance.initial;
  std::vector<JobId> pending_large;  // removed large jobs awaiting placement
  std::vector<JobId> pending_small;  // removed small jobs for Step 6
  std::int64_t removals = 0;

  // ---- Step 1: keep only the smallest large job per processor. ----
  // Each group is ascending, so its large jobs are the suffix after its
  // num_small small ones; the first of them stays.
  std::vector<PartitionCounts> counts(m);
  std::int64_t large_total = 0;
  for (ProcId p = 0; p < m; ++p) {
    counts[p] = partition_counts(order, p, T);
    large_total += counts[p].num_large;
    const auto jobs = order.jobs(p);
    for (auto i = static_cast<std::size_t>(counts[p].num_small) + 1;
         i < jobs.size(); ++i) {
      pending_large.push_back(jobs[i]);
      ++removals;
    }
  }
  out.large_total = large_total;
  out.large_extra = static_cast<std::int64_t>(pending_large.size());

  if (large_total > static_cast<std::int64_t>(m)) {
    // More large jobs than processors: no assignment has makespan <= T.
    out.feasible = false;
    return out;
  }

  // ---- Step 2: a_i, b_i (c_i = a_i - b_i) from the prefix sums. ----
  out.a.resize(m);
  out.b.resize(m);
  for (ProcId p = 0; p < m; ++p) {
    out.a[p] = counts[p].a;
    out.b[p] = counts[p].b;
  }
  const auto c = [&](ProcId p) { return out.a[p] - out.b[p]; };
  const auto has_large = [&](ProcId p) { return counts[p].num_large > 0; };

  // ---- Step 3: pick the L_T processors with smallest c_i. ----
  std::vector<ProcId> procs(m);
  std::iota(procs.begin(), procs.end(), ProcId{0});
  std::sort(procs.begin(), procs.end(), [&](ProcId x, ProcId y) {
    if (c(x) != c(y)) return c(x) < c(y);
    if (has_large(x) != has_large(y)) return has_large(x);
    return x < y;
  });
  std::vector<char> selected(m, 0);
  for (std::int64_t i = 0; i < large_total; ++i) selected[procs[static_cast<std::size_t>(i)]] = 1;

  // ---- Steps 3-4: drop the a_i largest small jobs from each selected
  // processor (its large job stays) and trim the others to <= T by dropping
  // their b_i largest remaining jobs. What is kept is a prefix of the group,
  // plus the smallest large job on a selected processor.
  std::vector<ProcId> free_slots;  // selected, currently large-free
  std::vector<Size> load(m, 0);
  for (ProcId p = 0; p < m; ++p) {
    const auto jobs = order.jobs(p);
    const auto num_small = static_cast<std::size_t>(counts[p].num_small);
    if (selected[p] != 0) {
      if (!has_large(p)) free_slots.push_back(p);
      const std::size_t keep = num_small - static_cast<std::size_t>(out.a[p]);
      for (std::size_t i = keep; i < num_small; ++i) {
        pending_small.push_back(jobs[i]);
        ++removals;
      }
      load[p] = order.head_load(p, keep) +
                (has_large(p) ? order.sizes(p)[num_small] : 0);
    } else {
      const std::size_t kept = num_small + (has_large(p) ? 1 : 0);
      const std::size_t keep = kept - static_cast<std::size_t>(out.b[p]);
      for (std::size_t i = keep; i < kept; ++i) {
        (i < num_small ? pending_small : pending_large).push_back(jobs[i]);
        ++removals;
      }
      load[p] = order.head_load(p, keep);
    }
  }

  // ---- Steps 4b & 5: place all pending large jobs on distinct slots. ----
  assert(pending_large.size() <= free_slots.size());
  for (std::size_t i = 0; i < pending_large.size(); ++i) {
    const ProcId slot = free_slots[i];
    assignment[pending_large[i]] = slot;
    load[slot] += instance.sizes[pending_large[i]];
  }

  // ---- Step 6: min-load greedy for the removed small jobs, largest first.
  std::sort(pending_small.begin(), pending_small.end(), [&](JobId x, JobId y) {
    if (instance.sizes[x] != instance.sizes[y]) {
      return instance.sizes[x] > instance.sizes[y];
    }
    return x < y;
  });
  using Entry = std::pair<Size, ProcId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> min_heap;
  for (ProcId p = 0; p < m; ++p) min_heap.emplace(load[p], p);
  for (JobId j : pending_small) {
    auto [l, p] = min_heap.top();
    min_heap.pop();
    assignment[j] = p;
    min_heap.emplace(l + instance.sizes[j], p);
  }

  out.feasible = true;
  out.removals = removals;
  out.result = finalize_result(instance, std::move(assignment), T);
  return out;
}

}  // namespace lrb
