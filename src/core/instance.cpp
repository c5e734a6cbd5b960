#include "core/instance.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace lrb {

Size Instance::total_size() const noexcept {
  return std::accumulate(sizes.begin(), sizes.end(), Size{0});
}

Size Instance::max_job() const noexcept {
  if (sizes.empty()) return 0;
  return *std::max_element(sizes.begin(), sizes.end());
}

std::vector<Size> Instance::initial_loads() const {
  std::vector<Size> loads(num_procs, 0);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    assert(initial[j] < num_procs);
    loads[initial[j]] += sizes[j];
  }
  return loads;
}

Size Instance::initial_makespan() const {
  const auto loads = initial_loads();
  if (loads.empty()) return 0;
  return *std::max_element(loads.begin(), loads.end());
}

std::vector<std::vector<JobId>> Instance::jobs_by_proc() const {
  std::vector<std::vector<JobId>> by_proc(num_procs);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    by_proc[initial[j]].push_back(static_cast<JobId>(j));
  }
  return by_proc;
}

bool Instance::unit_costs() const noexcept {
  return std::all_of(move_costs.begin(), move_costs.end(),
                     [](Cost c) { return c == 1; });
}

Instance make_instance(std::vector<Size> sizes, std::vector<ProcId> initial,
                       ProcId num_procs) {
  Instance inst;
  inst.move_costs.assign(sizes.size(), 1);
  inst.sizes = std::move(sizes);
  inst.initial = std::move(initial);
  inst.num_procs = num_procs;
  assert(!validate(inst));
  return inst;
}

Instance make_instance(std::vector<Size> sizes, std::vector<Cost> move_costs,
                       std::vector<ProcId> initial, ProcId num_procs) {
  Instance inst;
  inst.sizes = std::move(sizes);
  inst.move_costs = std::move(move_costs);
  inst.initial = std::move(initial);
  inst.num_procs = num_procs;
  assert(!validate(inst));
  return inst;
}

std::optional<std::string> validate(const Instance& instance) {
  if (instance.num_procs == 0) return "instance has no processors";
  const std::size_t n = instance.sizes.size();
  if (instance.move_costs.size() != n) {
    return "move_costs length (" + std::to_string(instance.move_costs.size()) +
           ") != number of jobs (" + std::to_string(n) + ")";
  }
  if (instance.initial.size() != n) {
    return "initial length (" + std::to_string(instance.initial.size()) +
           ") != number of jobs (" + std::to_string(n) + ")";
  }
  Size total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (instance.sizes[j] < 0) {
      return "job " + std::to_string(j) + " has negative size";
    }
    // total + size >= kInfSize, without overflowing: loads, makespans and
    // the solvers' sentinels all stay exact below the cap.
    if (instance.sizes[j] >= kInfSize - total) {
      return "total job size reaches " + std::to_string(kInfSize);
    }
    total += instance.sizes[j];
    if (instance.move_costs[j] < 0) {
      return "job " + std::to_string(j) + " has negative move cost";
    }
    if (instance.initial[j] >= instance.num_procs) {
      return "job " + std::to_string(j) + " initially on out-of-range processor " +
             std::to_string(instance.initial[j]);
    }
  }
  return std::nullopt;
}

}  // namespace lrb
