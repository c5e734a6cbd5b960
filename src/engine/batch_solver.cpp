#include "engine/batch_solver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

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

RebalanceResult BatchSolver::solve_canonical(
    const TickItem& item, const cache::CanonicalInstance& canon,
    const cache::Fingerprint& fp, std::string_view key, Scratch* arena) {
  // kNoBlock: this runs on pool workers (solve_items phase 2), on
  // submitters draining the pool, and on solve_item's caller (a reactor
  // replanning a session). Any of them parked on the single-flight cv
  // would run nothing else meanwhile, holding up every item queued behind
  // it or every connection of its reactor. A duplicate in-flight key
  // therefore solves uncached instead of waiting.
  auto probe = cache_->lookup_or_begin(
      fp, key, cache::SolutionCache::WaitMode::kNoBlock);
  if (probe.hit) return std::move(probe.result);

  TickItem canonical_item = item;
  canonical_item.instance = &canon.instance;
  canonical_item.spec.params = solver::normalized_params(item.spec);
  RebalanceResult result;
  try {
    result = run_item(canonical_item, arena);
  } catch (...) {
    // Never strand single-flight waiters: hand leadership to one of them.
    if (probe.leader) cache_->cancel(fp, key);
    throw;
  }
  solved_counter_.add(1);
  if (probe.leader) cache_->publish(fp, key, result);
  return result;
}

RebalanceResult BatchSolver::solve_item(const TickItem& item,
                                        Scratch* arena) {
  using Clock = std::chrono::steady_clock;
  batch_counter_.add(1);
  const auto begin = Clock::now();
  const auto record_latency = [&] {
    solve_latency_ms_.record(
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count());
  };
  if (cache_ == nullptr) {
    RebalanceResult result = run_item(item, arena);
    solved_counter_.add(1);
    record_latency();
    return result;
  }
  // solve_items_cached for one item: no batch to dedup against.
  const cache::CanonicalInstance canon = cache::canonicalize(*item.instance);
  const std::string key =
      cache::encode_cache_key(canon.instance, item.spec, item.k);
  const RebalanceResult canonical =
      solve_canonical(item, canon, cache::fingerprint(key), key, arena);
  record_latency();
  return cache::map_to_original(canon, canonical);
}

std::vector<RebalanceResult> BatchSolver::solve_items_cached(
    std::span<const TickItem> items, std::vector<double>* latencies_ms) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = items.size();
  std::vector<RebalanceResult> results(n);
  if (latencies_ms != nullptr) latencies_ms->assign(n, 0.0);

  // Phase 1: canonicalize every item and derive its cache key.
  std::vector<cache::CanonicalInstance> canons(n);
  std::vector<std::string> keys(n);
  std::vector<cache::Fingerprint> fps(n);
  std::vector<double> canon_ms(n, 0.0);
  parallel_for(pool_, 0, n, [&](std::size_t i) {
    const auto begin = Clock::now();
    const TickItem& item = items[i];
    canons[i] = cache::canonicalize(*item.instance);
    keys[i] = cache::encode_cache_key(canons[i].instance, item.spec, item.k);
    fps[i] = cache::fingerprint(keys[i]);
    canon_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count();
  });

  // Batch dedup: items with byte-identical keys share one solve. rep[i] is
  // the first item with item i's key; only representatives hit the cache.
  std::vector<std::size_t> rep(n);
  std::vector<std::size_t> uniques;
  {
    std::unordered_map<std::string_view, std::size_t> first;
    first.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] = first.emplace(keys[i], i);
      rep[i] = it->second;
      if (inserted) uniques.push_back(i);
    }
  }

  // Phase 2: probe-or-solve each representative (canonical labels). The
  // solve time is recorded into the histogram here, once per
  // representative — duplicates must not re-record it below, or batches
  // with many duplicates inflate engine.solve_latency_ms.
  std::vector<RebalanceResult> canonical_results(n);
  std::vector<double> solve_ms(n, 0.0);
  parallel_for(pool_, 0, uniques.size(), [&](std::size_t u) {
    const std::size_t i = uniques[u];
    const auto begin = Clock::now();
    canonical_results[i] = solve_canonical(items[i], canons[i], fps[i],
                                           keys[i], nullptr);
    solve_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count();
    solve_latency_ms_.record(canon_ms[i] + solve_ms[i]);
  });

  // Phase 3: fan out through each item's own recorded permutation. A
  // duplicate's own cost is just its canonicalization; the shared solve
  // was already attributed to the representative.
  parallel_for(pool_, 0, n, [&](std::size_t i) {
    results[i] = cache::map_to_original(canons[i], canonical_results[rep[i]]);
    const double ms =
        rep[i] == i ? canon_ms[i] + solve_ms[i] : canon_ms[i];
    if (rep[i] != i) solve_latency_ms_.record(ms);
    if (latencies_ms != nullptr) (*latencies_ms)[i] = ms;
  });
  return results;
}

std::vector<RebalanceResult> BatchSolver::solve_items(
    std::span<const TickItem> items, std::vector<double>* latencies_ms) {
  batch_counter_.add(1);
  if (cache_ != nullptr) return solve_items_cached(items, latencies_ms);
  std::vector<RebalanceResult> results(items.size());
  if (latencies_ms != nullptr) {
    latencies_ms->assign(items.size(), 0.0);
  }
  parallel_for(pool_, 0, items.size(), [&](std::size_t i) {
    const auto begin = std::chrono::steady_clock::now();
    results[i] = run_item(items[i], nullptr);
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    solved_counter_.add(1);
    solve_latency_ms_.record(ms);
    if (latencies_ms != nullptr) (*latencies_ms)[i] = ms;
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
