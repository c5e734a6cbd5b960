#include "algo/greedy.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>
#include <vector>

namespace lrb {

RebalanceResult greedy_rebalance(const Instance& instance, std::int64_t k,
                                 GreedyOrder reinsertion, GreedyStats* stats) {
  return greedy_rebalance(instance, ProcOrder(instance), k, reinsertion,
                          stats);
}

RebalanceResult greedy_rebalance(const Instance& instance,
                                 const ProcOrder& order, std::int64_t k,
                                 GreedyOrder reinsertion, GreedyStats* stats) {
  assert(k >= 0);
  const ProcId m = instance.num_procs;
  Assignment assignment = instance.initial;

  // Step 1: k removals, largest job off the heaviest processor, victims in
  // (size descending, id ascending) order per processor. Each ascending
  // group is consumed from its back one equal-size run at a time, front to
  // back inside the run; the unconsumed jobs are [0, begin) and [next, end).
  struct Run {
    std::size_t begin = 0;
    std::size_t next = 0;
    std::size_t end = 0;
  };
  std::vector<Run> runs(m);
  std::vector<Size> load(m);
  // Max-heap with lazy deletion: entries are (load, proc) snapshots.
  std::priority_queue<std::pair<Size, ProcId>> max_heap;
  for (ProcId p = 0; p < m; ++p) {
    const std::size_t count = order.jobs(p).size();
    runs[p] = {count, count, count};
    load[p] = order.load(p);
    max_heap.emplace(load[p], p);
  }

  std::vector<JobId> removed;
  removed.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
      k, static_cast<std::int64_t>(instance.num_jobs()))));
  for (std::int64_t step = 0; step < k && !max_heap.empty();) {
    const auto [snapshot, p] = max_heap.top();
    if (snapshot != load[p]) {  // stale
      max_heap.pop();
      continue;
    }
    Run& run = runs[p];
    if (run.next == run.end) {
      if (run.begin == 0) {
        // The heaviest processor has no jobs left: every processor is empty
        // of removable work at or above this load; stop early.
        break;
      }
      const auto sizes = order.sizes(p);
      run.end = run.begin;
      while (run.begin > 0 && sizes[run.begin - 1] == sizes[run.end - 1]) {
        --run.begin;
      }
      run.next = run.begin;
    }
    max_heap.pop();
    const JobId victim = order.jobs(p)[run.next++];
    load[p] -= instance.sizes[victim];
    removed.push_back(victim);
    max_heap.emplace(load[p], p);
    ++step;
  }

  if (stats != nullptr) {
    stats->removed = static_cast<std::int64_t>(removed.size());
    stats->g1 = *std::max_element(load.begin(), load.end());
  }

  // Step 2: reinsert in the requested order onto the min-loaded processor.
  switch (reinsertion) {
    case GreedyOrder::kAsRemoved:
      break;
    case GreedyOrder::kLargestFirst:
      std::stable_sort(removed.begin(), removed.end(), [&](JobId a, JobId b) {
        return instance.sizes[a] > instance.sizes[b];
      });
      break;
    case GreedyOrder::kSmallestFirst:
      std::stable_sort(removed.begin(), removed.end(), [&](JobId a, JobId b) {
        return instance.sizes[a] < instance.sizes[b];
      });
      break;
  }
  using Entry = std::pair<Size, ProcId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> min_heap;
  for (ProcId p = 0; p < m; ++p) min_heap.emplace(load[p], p);
  for (JobId j : removed) {
    auto [l, p] = min_heap.top();
    min_heap.pop();
    assignment[j] = p;
    min_heap.emplace(l + instance.sizes[j], p);
  }
  return finalize_result(instance, std::move(assignment));
}

}  // namespace lrb
