#include "core/lower_bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <vector>

namespace lrb {

Size average_load_bound(const Instance& instance) {
  const Size total = instance.total_size();
  const auto m = static_cast<Size>(instance.num_procs);
  return (total + m - 1) / m;  // ceil
}

Size max_job_bound(const Instance& instance) { return instance.max_job(); }

Size k_removal_bound(const Instance& instance, std::int64_t k) {
  return k_removal_bound(ProcOrder(instance), k);
}

Size k_removal_bound(const ProcOrder& order, std::int64_t k) {
  // Each processor's jobs leave from the back of its ascending group, so
  // its load is always a prefix sum; a max-heap of (load, proc) drives the
  // "largest job off the heaviest processor" loop. Ties between equal sizes
  // leave every load unchanged.
  const ProcId m = order.num_procs();
  std::vector<std::size_t> left(m);
  std::priority_queue<std::pair<Size, ProcId>> heap;
  for (ProcId p = 0; p < m; ++p) {
    left[p] = order.jobs(p).size();
    heap.emplace(order.load(p), p);
  }
  const auto load = [&](ProcId p) { return order.head_load(p, left[p]); };

  for (std::int64_t step = 0; step < k; ++step) {
    // Pop stale entries (loads changed since push).
    while (!heap.empty() && heap.top().first != load(heap.top().second)) {
      heap.pop();
    }
    if (heap.empty()) break;
    const ProcId p = heap.top().second;
    if (left[p] == 0) break;  // heaviest processor is empty: done
    --left[p];
    heap.emplace(load(p), p);
  }
  Size result = 0;
  for (ProcId p = 0; p < m; ++p) result = std::max(result, load(p));
  return result;
}

Size budget_removal_bound(const Instance& instance, Cost budget) {
  // Per processor: jobs sorted by cost/size ascending (cheapest trimming
  // first) with prefix sums, so the fractional trim cost to any target T is
  // O(log n) per processor via binary search on the size prefix.
  struct ProcPlan {
    Size load = 0;
    std::vector<Size> size_prefix;    // cumulative size removed
    std::vector<double> cost_prefix;  // cumulative cost removed
  };
  std::vector<ProcPlan> plans(instance.num_procs);
  {
    auto by_proc = instance.jobs_by_proc();
    for (ProcId p = 0; p < instance.num_procs; ++p) {
      auto& jobs = by_proc[p];
      std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
        // cost_a / size_a < cost_b / size_b, cross-multiplied; size-0 jobs
        // are never worth removing (treat as infinitely expensive per unit).
        const auto sa = instance.sizes[a], sb = instance.sizes[b];
        const auto ca = instance.move_costs[a], cb = instance.move_costs[b];
        if (sa == 0 || sb == 0) return sb == 0 && sa != 0;
        return static_cast<double>(ca) * static_cast<double>(sb) <
               static_cast<double>(cb) * static_cast<double>(sa);
      });
      auto& plan = plans[p];
      plan.size_prefix.reserve(jobs.size() + 1);
      plan.cost_prefix.reserve(jobs.size() + 1);
      plan.size_prefix.push_back(0);
      plan.cost_prefix.push_back(0.0);
      for (JobId j : jobs) {
        plan.load += instance.sizes[j];
        plan.size_prefix.push_back(plan.size_prefix.back() + instance.sizes[j]);
        plan.cost_prefix.push_back(plan.cost_prefix.back() +
                                   static_cast<double>(instance.move_costs[j]));
      }
    }
  }

  // Fractional minimum cost to trim processor p's load to <= target.
  auto trim_cost = [&](const ProcPlan& plan, Size target) -> double {
    const Size need = plan.load - target;
    if (need <= 0) return 0.0;
    if (plan.size_prefix.back() < need) return 1e300;  // cannot trim enough
    const auto it = std::lower_bound(plan.size_prefix.begin(),
                                     plan.size_prefix.end(), need);
    const auto idx = static_cast<std::size_t>(it - plan.size_prefix.begin());
    if (plan.size_prefix[idx] == need) return plan.cost_prefix[idx];
    // Take jobs [0, idx-1] fully and a fraction of job idx-1 -> idx.
    const Size covered = plan.size_prefix[idx - 1];
    const Size slice = plan.size_prefix[idx] - covered;
    const double slice_cost = plan.cost_prefix[idx] - plan.cost_prefix[idx - 1];
    const double frac = static_cast<double>(need - covered) /
                        static_cast<double>(slice);
    return plan.cost_prefix[idx - 1] + frac * slice_cost;
  };

  auto feasible = [&](Size target) {
    double total = 0.0;
    for (const auto& plan : plans) {
      total += trim_cost(plan, target);
      if (total > static_cast<double>(budget) + 1e-9) return false;
    }
    return true;
  };

  Size lo = 0;
  Size hi = instance.initial_makespan();
  while (lo < hi) {
    const Size mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

Size combined_lower_bound(const Instance& instance, std::int64_t k) {
  return combined_lower_bound(ProcOrder(instance), k);
}

Size combined_lower_bound(const ProcOrder& order, std::int64_t k) {
  const ProcId m = order.num_procs();
  Size total = 0;
  Size max_job = 0;
  for (ProcId p = 0; p < m; ++p) {
    const auto sizes = order.sizes(p);
    total += order.load(p);
    if (!sizes.empty()) max_job = std::max(max_job, sizes.back());
  }
  const auto procs = static_cast<Size>(m);
  return std::max({(total + procs - 1) / procs, max_job,
                   k_removal_bound(order, k)});
}

}  // namespace lrb
