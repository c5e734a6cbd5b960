#include "engine/batch_solver.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "cache/canonical.h"
#include "util/timer.h"

namespace lrb::engine {

RebalanceResult solve_serial_reference(const solver::SolverSpec& spec,
                                       const Instance& instance,
                                       std::int64_t k) {
  return solver::solve_serial(spec, instance, k);
}

RebalanceResult cached_serial_reference(const solver::SolverSpec& spec,
                                        const Instance& instance,
                                        std::int64_t k) {
  const cache::CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult canonical =
      solver::solve_serial(spec, canon.instance, k);
  return cache::map_to_original(canon, canonical);
}

BatchSolver::BatchSolver(BatchOptions options)
    : options_(options),
      pool_(options.workers),
      solved_counter_(options_.metrics->counter("engine.instances_solved")),
      batch_counter_(options_.metrics->counter("engine.batches")),
      solve_latency_ms_(
          options_.metrics->histogram("engine.solve_latency_ms")) {
  if (options_.cache_bytes > 0) {
    cache::CacheOptions cache_options;
    cache_options.max_bytes = options_.cache_bytes;
    cache_options.shards = options_.cache_shards;
    cache_options.metrics = options_.metrics;
    cache_ = std::make_unique<cache::SolutionCache>(cache_options);
  }
  // One warmed arena per worker plus one for a submitting tick worker (it
  // helps drain the queue while blocked in parallel_for) or a solve_item
  // caller that passes no arena; the server's reactors bring their own,
  // and further concurrent callers mint theirs.
  std::lock_guard lock(scratch_mutex_);
  free_scratch_.reserve(pool_.size() + 1);
  for (std::size_t i = 0; i < pool_.size() + 1; ++i) {
    auto scratch = std::make_unique<Scratch>();
    scratch->warm(kWarmJobs, kWarmProcs);
    free_scratch_.push_back(std::move(scratch));
  }
}

BatchSolver::ScratchLease::ScratchLease(BatchSolver& owner) : owner_(owner) {
  {
    std::lock_guard lock(owner_.scratch_mutex_);
    if (!owner_.free_scratch_.empty()) {
      scratch_ = std::move(owner_.free_scratch_.back());
      owner_.free_scratch_.pop_back();
    }
  }
  if (scratch_ == nullptr) {
    scratch_ = std::make_unique<Scratch>();
    scratch_->warm(kWarmJobs, kWarmProcs);
  }
}

BatchSolver::ScratchLease::~ScratchLease() {
  std::lock_guard lock(owner_.scratch_mutex_);
  owner_.free_scratch_.push_back(std::move(scratch_));
}

RebalanceResult BatchSolver::run_item(const TickItem& item, Scratch* arena) {
  if (arena == nullptr) {
    ScratchLease lease(*this);
    return run_item(item, &lease.get());
  }
  Scratch& scratch = *arena;
  const Instance& instance = *item.instance;
  solver::SolveContext ctx;
  ctx.m_partition = &scratch.m_partition;
  ctx.ptas = &scratch.ptas;
  RebalanceResult result = solver::solve(item.spec, instance, item.k, ctx);
#ifndef NDEBUG
  // Recheck the reported makespan against the assignment using the arena's
  // load buffer (no allocation once warmed).
  scratch.loads.assign(instance.num_procs, 0);
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    scratch.loads[result.assignment[j]] += instance.sizes[j];
  }
  Size max_load = 0;
  for (Size load : scratch.loads) max_load = std::max(max_load, load);
  assert(max_load == result.makespan);
#endif
  return result;
}

RebalanceResult BatchSolver::solve_one(const TickItem& item, Scratch* arena,
                                       double* latency_ms) {
  const Timer timer;
  RebalanceResult result;
  if (cache_ == nullptr) {
    result = run_item(item, arena);
    solved_counter_.add(1);
  } else {
    const cache::CanonicalInstance canon = cache::canonicalize(*item.instance);
    const std::string key =
        cache::encode_cache_key(canon.instance, item.spec, item.k);
    const cache::Fingerprint fp = cache::fingerprint(key);
    // The blocking default: an identical key another thread is solving is
    // waited for, not solved again. That leader is running its solve and
    // waits for nothing (solution_cache.h), and this thread holds no arena
    // while it waits: run_item leases one only on a miss.
    auto probe = cache_->lookup_or_begin(fp, key);
    if (!probe.hit) {
      TickItem canonical_item = item;
      canonical_item.instance = &canon.instance;
      canonical_item.spec.params = solver::normalized_params(item.spec);
      try {
        probe.result = run_item(canonical_item, arena);
      } catch (...) {
        // Never strand single-flight waiters: hand leadership to one.
        if (probe.leader) cache_->cancel(fp, key);
        throw;
      }
      solved_counter_.add(1);
      if (probe.leader) cache_->publish(fp, key, probe.result);
    }
    result = cache::map_to_original(canon, probe.result);
  }
  const double ms = timer.millis();
  solve_latency_ms_.record(ms);
  if (latency_ms != nullptr) *latency_ms = ms;
  return result;
}

RebalanceResult BatchSolver::solve_item(const TickItem& item,
                                        Scratch* arena) {
  batch_counter_.add(1);
  return solve_one(item, arena, nullptr);
}

std::vector<RebalanceResult> BatchSolver::solve_items(
    std::span<const TickItem> items, std::vector<double>* latencies_ms) {
  batch_counter_.add(1);
  std::vector<RebalanceResult> results(items.size());
  if (latencies_ms != nullptr) latencies_ms->assign(items.size(), 0.0);
  parallel_for(pool_, 0, items.size(), [&](std::size_t i) {
    results[i] = solve_one(items[i], nullptr,
                           latencies_ms != nullptr ? &(*latencies_ms)[i]
                                                   : nullptr);
  });
  return results;
}

std::vector<RebalanceResult> BatchSolver::solve(
    const std::vector<Instance>& instances,
    const std::vector<std::int64_t>& ks, std::vector<double>* latencies_ms) {
  assert(instances.size() == ks.size());
  std::vector<TickItem> items(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    items[i].instance = &instances[i];
    items[i].k = ks[i];
    items[i].spec = options_.spec;
  }
  return solve_items(items, latencies_ms);
}

}  // namespace lrb::engine
