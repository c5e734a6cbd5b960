#include "core/proc_order.h"

#include <algorithm>

namespace lrb {

void ProcOrder::build(const Instance& instance) {
  const std::size_t n = instance.num_jobs();
  const ProcId m = instance.num_procs;
  // Counting sort by initial processor. offset_[p] first serves as p's fill
  // cursor and ends at p's group end, i.e. at the next group's begin.
  offset_.assign(static_cast<std::size_t>(m) + 1, 0);
  for (const ProcId p : instance.initial) ++offset_[p + 1];
  for (ProcId p = 0; p < m; ++p) offset_[p + 1] += offset_[p];
  jobs_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    jobs_[offset_[instance.initial[j]]++] = static_cast<JobId>(j);
  }
  for (ProcId p = m; p > 0; --p) offset_[p] = offset_[p - 1];
  offset_[0] = 0;

  sizes_.resize(n);
  prefix_.resize(n);
  for (ProcId p = 0; p < m; ++p) {
    const auto lo = static_cast<std::ptrdiff_t>(offset_[p]);
    const auto hi = static_cast<std::ptrdiff_t>(offset_[p + 1]);
    std::sort(jobs_.begin() + lo, jobs_.begin() + hi, [&](JobId x, JobId y) {
      if (instance.sizes[x] != instance.sizes[y]) {
        return instance.sizes[x] < instance.sizes[y];
      }
      return x < y;
    });
    Size acc = 0;
    for (std::size_t i = offset_[p]; i < offset_[p + 1]; ++i) {
      sizes_[i] = instance.sizes[jobs_[i]];
      acc += sizes_[i];
      prefix_[i] = acc;
    }
  }
}

void ProcOrder::reserve(std::size_t max_jobs, ProcId max_procs) {
  jobs_.reserve(max_jobs);
  sizes_.reserve(max_jobs);
  prefix_.reserve(max_jobs);
  offset_.reserve(static_cast<std::size_t>(max_procs) + 1);
}

}  // namespace lrb
