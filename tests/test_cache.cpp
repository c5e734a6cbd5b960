// Property battery for the canonicalizing solution cache (src/cache/,
// docs/caching.md): canonicalization is idempotent and invariant under
// job/processor relabeling, fingerprints separate canonically distinct
// instances, permutation mapping round-trips exactly, the sharded LRU
// evicts in recency order with exact byte accounting, single-flight
// collapses concurrent identical misses to one solve (in the engine too:
// an identical key in flight is waited for, not solved again), and the
// cache-enabled engine stays byte-identical to cached_serial_reference.
//
// Suite names all contain `Cache` so the thread-sanitize CI job picks the
// concurrency tests up via its -R filter.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/canonical.h"
#include "cache/solution_cache.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "util/rng.h"

namespace lrb {
namespace {

using cache::CanonicalInstance;
using cache::Fingerprint;
using cache::SolutionCache;
using solver::BackendId;

Instance corpus_instance(std::size_t index) {
  return mixed_corpus_instance(index, /*seed=*/0xabcdefULL);
}

/// Relabels jobs and processors: job_perm[j] / proc_perm[p] are the NEW ids
/// of old job j / old processor p. The relabeled instance describes the
/// same problem.
Instance relabel(const Instance& in, const std::vector<JobId>& job_perm,
                 const std::vector<ProcId>& proc_perm) {
  Instance out;
  out.num_procs = in.num_procs;
  out.sizes.resize(in.num_jobs());
  out.move_costs.resize(in.num_jobs());
  out.initial.resize(in.num_jobs());
  for (std::size_t j = 0; j < in.num_jobs(); ++j) {
    out.sizes[job_perm[j]] = in.sizes[j];
    out.move_costs[job_perm[j]] = in.move_costs[j];
    out.initial[job_perm[j]] = proc_perm[in.initial[j]];
  }
  return out;
}

std::vector<JobId> random_job_perm(std::size_t n, Rng& rng) {
  std::vector<JobId> perm(n);
  std::iota(perm.begin(), perm.end(), JobId{0});
  shuffle(std::span<JobId>(perm), rng);
  return perm;
}

std::vector<ProcId> random_proc_perm(ProcId m, Rng& rng) {
  std::vector<ProcId> perm(m);
  std::iota(perm.begin(), perm.end(), ProcId{0});
  shuffle(std::span<ProcId>(perm), rng);
  return perm;
}

/// One single-item tick with the solver's default spec.
RebalanceResult solve_alone(engine::BatchSolver& solver,
                            const Instance& instance, std::int64_t k) {
  engine::BatchSolver::TickItem item;
  item.instance = &instance;
  item.k = k;
  item.spec = solver.options().spec;
  return solver.solve_item(item);
}

std::string canonical_key(const Instance& instance) {
  const CanonicalInstance canon = cache::canonicalize(instance);
  return cache::encode_cache_key(canon.instance, BackendId::kBestOf, /*k=*/7);
}

TEST(CacheCanonical, IdempotentAndIdentityOnCanonicalForm) {
  for (std::size_t index = 0; index < 24; ++index) {
    const Instance instance = corpus_instance(index);
    const CanonicalInstance canon = cache::canonicalize(instance);
    ASSERT_EQ(validate(canon.instance), std::nullopt);

    // Canonicalizing the canonical instance is the identity.
    const CanonicalInstance again = cache::canonicalize(canon.instance);
    EXPECT_EQ(again.instance.sizes, canon.instance.sizes);
    EXPECT_EQ(again.instance.move_costs, canon.instance.move_costs);
    EXPECT_EQ(again.instance.initial, canon.instance.initial);
    for (std::size_t j = 0; j < again.job_to_canonical.size(); ++j) {
      EXPECT_EQ(again.job_to_canonical[j], static_cast<JobId>(j));
    }
    for (ProcId p = 0; p < again.instance.num_procs; ++p) {
      EXPECT_EQ(again.proc_to_canonical[p], p);
    }

    // The recorded permutations are mutually inverse bijections.
    for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
      EXPECT_EQ(canon.job_from_canonical[canon.job_to_canonical[j]],
                static_cast<JobId>(j));
    }
    for (ProcId p = 0; p < instance.num_procs; ++p) {
      EXPECT_EQ(canon.proc_from_canonical[canon.proc_to_canonical[p]], p);
    }

    // Canonicalization permutes, never alters, the job population.
    EXPECT_EQ(canon.instance.total_size(), instance.total_size());
    EXPECT_EQ(canon.instance.initial_makespan(), instance.initial_makespan());
  }
}

TEST(CacheCanonical, InvariantUnderRelabeling) {
  Rng rng(0x1234);
  for (std::size_t index = 0; index < 24; ++index) {
    const Instance instance = corpus_instance(index);
    const std::string key = canonical_key(instance);
    const Fingerprint fp = cache::fingerprint(key);
    for (int trial = 0; trial < 4; ++trial) {
      const auto job_perm = random_job_perm(instance.num_jobs(), rng);
      const auto proc_perm = random_proc_perm(instance.num_procs, rng);
      const Instance shuffled = relabel(instance, job_perm, proc_perm);
      const std::string shuffled_key = canonical_key(shuffled);
      EXPECT_EQ(shuffled_key, key) << "instance " << index;
      EXPECT_EQ(cache::fingerprint(shuffled_key), fp);
    }
  }
}

TEST(CacheCanonical, FingerprintSeparatesDistinctInstances) {
  // Canonically distinct instances must get distinct fingerprints (128 bits
  // over ~100 keys: a collision here means the hash is broken, not unlucky).
  std::vector<std::pair<std::string, Fingerprint>> seen;
  for (std::size_t index = 0; index < 60; ++index) {
    const std::string key = canonical_key(corpus_instance(index));
    const Fingerprint fp = cache::fingerprint(key);
    for (const auto& [other_key, other_fp] : seen) {
      if (other_key != key) {
        EXPECT_FALSE(other_fp == fp) << "collision at index " << index;
      }
    }
    seen.emplace_back(key, fp);
  }
  // Solve parameters are part of the key: same instance, different k /
  // algo / eps must all be distinct.
  const CanonicalInstance canon =
      cache::canonicalize(corpus_instance(0));
  const auto key_of = [&](BackendId backend, std::int64_t k, double eps) {
    return cache::encode_cache_key(
        canon.instance, solver::SolverSpec(backend, {.eps = eps}), k);
  };
  EXPECT_NE(key_of(BackendId::kGreedy, 5, 1.0),
            key_of(BackendId::kMPartition, 5, 1.0));
  EXPECT_NE(key_of(BackendId::kGreedy, 5, 1.0),
            key_of(BackendId::kGreedy, 6, 1.0));
  EXPECT_NE(key_of(BackendId::kPtas, 5, 0.5),
            key_of(BackendId::kPtas, 5, 0.25));
}

TEST(CacheCanonical, MappingRoundTripsAndPreservesAccounting) {
  Rng rng(0x77);
  for (std::size_t index = 0; index < 16; ++index) {
    const Instance instance = corpus_instance(index);
    const CanonicalInstance canon = cache::canonicalize(instance);
    const std::int64_t k =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      instance.num_jobs() / 8));
    const RebalanceResult canonical =
        engine::solve_serial_reference(BackendId::kBestOf, canon.instance, k);
    const RebalanceResult mapped = cache::map_to_original(canon, canonical);

    // The mapped plan is a valid assignment of the ORIGINAL instance whose
    // exact accounting equals the canonical scalars: makespan, moves and
    // cost are invariant under relabeling.
    ASSERT_EQ(validate(instance, mapped.assignment), std::nullopt);
    EXPECT_EQ(makespan(instance, mapped.assignment), canonical.makespan);
    EXPECT_EQ(moves_used(instance, mapped.assignment), canonical.moves);
    EXPECT_EQ(relocation_cost(instance, mapped.assignment), canonical.cost);
    EXPECT_EQ(mapped.makespan, canonical.makespan);
    EXPECT_EQ(mapped.moves, canonical.moves);
    EXPECT_EQ(mapped.cost, canonical.cost);
    EXPECT_EQ(mapped.threshold, canonical.threshold);

    // Inverse mapping round-trips exactly.
    const Assignment back =
        cache::map_assignment_to_canonical(canon, mapped.assignment);
    EXPECT_EQ(back, canonical.assignment);
    (void)rng;
  }
}

TEST(CacheLru, EvictsInRecencyOrderWithExactByteAccounting) {
  obs::Registry registry;
  const Instance instance = corpus_instance(3);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult result = engine::solve_serial_reference(
      BackendId::kGreedy, canon.instance, 4);

  const auto key_for = [&](std::int64_t k) {
    return cache::encode_cache_key(canon.instance, BackendId::kGreedy, k);
  };
  const std::size_t per_entry = SolutionCache::entry_bytes(
      key_for(0).size(), result.assignment.size());

  cache::CacheOptions options;
  options.shards = 1;  // deterministic: one LRU list
  options.max_bytes = 3 * per_entry;
  options.metrics = &registry;
  SolutionCache cache(options);
  ASSERT_EQ(cache.shard_count(), 1u);

  const auto fp_for = [&](std::int64_t k) {
    return cache::fingerprint(key_for(k));
  };
  for (std::int64_t k = 0; k < 3; ++k) {
    cache.insert(fp_for(k), key_for(k), result);
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * per_entry);
  EXPECT_EQ(registry.gauge("cache.bytes").value(),
            static_cast<std::int64_t>(3 * per_entry));
  EXPECT_EQ(registry.gauge("cache.entries").value(), 3);

  // Touch key 0 so key 1 is now the LRU tail; the next insert evicts 1.
  EXPECT_TRUE(cache.lookup(fp_for(0), key_for(0)).has_value());
  cache.insert(fp_for(3), key_for(3), result);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);
  EXPECT_FALSE(cache.lookup(fp_for(1), key_for(1)).has_value());
  EXPECT_TRUE(cache.lookup(fp_for(0), key_for(0)).has_value());
  EXPECT_TRUE(cache.lookup(fp_for(2), key_for(2)).has_value());
  EXPECT_TRUE(cache.lookup(fp_for(3), key_for(3)).has_value());

  // Re-inserting an existing key refreshes in place: no growth, no eviction.
  cache.insert(fp_for(3), key_for(3), result);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * per_entry);
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);

  // An entry larger than the whole budget is refused, not thrashed in.
  cache::CacheOptions tiny;
  tiny.shards = 1;
  tiny.max_bytes = per_entry - 1;
  tiny.metrics = &registry;
  SolutionCache small(tiny);
  small.insert(fp_for(0), key_for(0), result);
  EXPECT_EQ(small.entries(), 0u);
  EXPECT_EQ(small.bytes(), 0u);
}

TEST(CacheLru, HitVerifiesFullKeyBytesNotJustTheFingerprint) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);

  const Instance instance = corpus_instance(5);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult result = engine::solve_serial_reference(
      BackendId::kGreedy, canon.instance, 2);
  const std::string key_a =
      cache::encode_cache_key(canon.instance, BackendId::kGreedy, 2);
  const std::string key_b =
      cache::encode_cache_key(canon.instance, BackendId::kMPartition, 2);
  const Fingerprint fp = cache::fingerprint(key_a);

  // Deliberately look key_b up under key_a's fingerprint (a simulated
  // 128-bit collision): the stored key bytes differ, so it must miss.
  cache.insert(fp, key_a, result);
  EXPECT_TRUE(cache.lookup(fp, key_a).has_value());
  EXPECT_FALSE(cache.lookup(fp, key_b).has_value());

  // Same collision against an in-flight leader: the prober is told to
  // solve uncached (no hit, no leadership, no blocking).
  const auto leader = cache.lookup_or_begin(cache::fingerprint(key_b), key_b);
  EXPECT_FALSE(leader.hit);
  EXPECT_TRUE(leader.leader);
  const auto collided = cache.lookup_or_begin(cache::fingerprint(key_b),
                                              key_a);
  EXPECT_FALSE(collided.hit);
  EXPECT_FALSE(collided.leader);
  cache.cancel(cache::fingerprint(key_b), key_b);
}

TEST(CacheSingleFlight, NoBlockProbeNeverWaitsOnALeader) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);

  const Instance instance = corpus_instance(6);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const std::string key =
      cache::encode_cache_key(canon.instance, BackendId::kGreedy, 4);
  const Fingerprint fp = cache::fingerprint(key);

  const auto leader = cache.lookup_or_begin(fp, key);
  ASSERT_TRUE(leader.leader);

  // With a leader in flight, a kNoBlock probe for the SAME key must
  // return immediately with neither a hit nor leadership — the engine
  // depends on this to never park a pool worker on the cv.
  const auto bypass =
      cache.lookup_or_begin(fp, key, SolutionCache::WaitMode::kNoBlock);
  EXPECT_FALSE(bypass.hit);
  EXPECT_FALSE(bypass.leader);
  EXPECT_EQ(registry.counter("cache.single_flight_bypass").value(), 1u);
  EXPECT_EQ(registry.counter("cache.single_flight_waits").value(), 0u);

  // Once the leader publishes, kNoBlock probes hit like any other.
  cache.publish(fp, key,
                engine::solve_serial_reference(BackendId::kGreedy,
                                               canon.instance, 4));
  const auto hit =
      cache.lookup_or_begin(fp, key, SolutionCache::WaitMode::kNoBlock);
  EXPECT_TRUE(hit.hit);
}

TEST(CacheSingleFlight, ConcurrentIdenticalMissesSolveExactlyOnce) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);

  const Instance instance = corpus_instance(7);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const std::string key =
      cache::encode_cache_key(canon.instance, BackendId::kBestOf, 5);
  const Fingerprint fp = cache::fingerprint(key);

  constexpr int kThreads = 16;
  constexpr int kRounds = 8;
  std::atomic<int> solves{0};
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    std::vector<RebalanceResult> results(kThreads);
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        const auto slot = static_cast<std::size_t>(t);
        for (;;) {
          auto probe = cache.lookup_or_begin(fp, key);
          if (probe.hit) {
            results[slot] = std::move(probe.result);
            return;
          }
          if (!probe.leader) continue;  // collision path: retry
          solves.fetch_add(1);
          const RebalanceResult solved = engine::solve_serial_reference(
              BackendId::kBestOf, canon.instance, 5);
          cache.publish(fp, key, solved);
          results[slot] = solved;
          return;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 1; t < results.size(); ++t) {
      ASSERT_EQ(results[t].assignment, results[0].assignment);
    }
  }
  // The first round has exactly one leader; later rounds are pure hits.
  EXPECT_EQ(solves.load(), 1);
  EXPECT_EQ(registry.counter("cache.inserts").value(), 1u);
  EXPECT_GE(registry.counter("cache.hits").value(),
            static_cast<std::uint64_t>(kThreads * kRounds - 1));
}

TEST(CacheSingleFlight, CancelledLeaderPromotesAWaiter) {
  SolutionCache cache;
  const Instance instance = corpus_instance(9);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const std::string key =
      cache::encode_cache_key(canon.instance, BackendId::kGreedy, 3);
  const Fingerprint fp = cache::fingerprint(key);

  auto first = cache.lookup_or_begin(fp, key);
  ASSERT_TRUE(first.leader);

  std::atomic<int> solves{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&] {
      for (;;) {
        auto probe = cache.lookup_or_begin(fp, key);
        if (probe.hit) return;
        if (!probe.leader) continue;
        solves.fetch_add(1);
        cache.publish(fp, key, engine::solve_serial_reference(
                                   BackendId::kGreedy, canon.instance, 3));
        return;
      }
    });
  }
  // The original leader fails; exactly one waiter must take over and
  // everyone else must drain via its published result.
  cache.cancel(fp, key);
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(solves.load(), 1);
}

TEST(CacheEngine, CachedSolvesAreByteIdenticalColdAndWarm) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);
  ASSERT_TRUE(solver.cache_enabled());

  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  for (std::size_t index = 0; index < 12; ++index) {
    instances.push_back(corpus_instance(index));
    ks.push_back(static_cast<std::int64_t>(index % 5) + 1);
  }
  const auto cold = solver.solve(instances, ks);
  const auto warm = solver.solve(instances, ks);
  ASSERT_EQ(cold.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const RebalanceResult want = engine::cached_serial_reference(
        options.spec, instances[i], ks[i]);
    EXPECT_EQ(cold[i].assignment, want.assignment) << "cold " << i;
    EXPECT_EQ(warm[i].assignment, want.assignment) << "warm " << i;
    EXPECT_EQ(cold[i].makespan, want.makespan);
    EXPECT_EQ(warm[i].moves, want.moves);
    EXPECT_EQ(warm[i].cost, want.cost);
    EXPECT_EQ(warm[i].threshold, want.threshold);
  }
  // The warm pass was served from cache: no new solves.
  EXPECT_EQ(registry.counter("engine.instances_solved").value(),
            instances.size());
  EXPECT_GE(registry.counter("cache.hits").value(), instances.size());
}

TEST(CacheEngine, RelabeledInstancesHitTheSameEntry) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  Rng rng(0x5150);
  const Instance instance = corpus_instance(11);
  const RebalanceResult original = solve_alone(solver, instance, 6);
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 1u);

  for (int trial = 0; trial < 5; ++trial) {
    const auto job_perm = random_job_perm(instance.num_jobs(), rng);
    const auto proc_perm = random_proc_perm(instance.num_procs, rng);
    const Instance shuffled = relabel(instance, job_perm, proc_perm);
    const RebalanceResult got = solve_alone(solver, shuffled, 6);
    // Same canonical entry (no extra solve), mapped back to the relabeled
    // instance's own labels — byte-identical to its serial reference.
    const RebalanceResult want = engine::cached_serial_reference(
        options.spec, shuffled, 6);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.makespan, original.makespan);
    EXPECT_EQ(got.moves, original.moves);
    EXPECT_EQ(got.cost, original.cost);
  }
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 1u);
  EXPECT_EQ(registry.counter("cache.hits").value(), 5u);
}

TEST(CacheEngine, BatchDedupSolvesIdenticalItemsOnce) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  const Instance instance = corpus_instance(2);
  constexpr std::size_t kCopies = 24;
  std::vector<engine::BatchSolver::TickItem> items(kCopies);
  for (auto& item : items) {
    item.instance = &instance;
    item.k = 4;
    item.spec = BackendId::kBestOf;
  }
  const auto results = solver.solve_items(items);
  ASSERT_EQ(results.size(), kCopies);
  const RebalanceResult want = engine::cached_serial_reference(
      BackendId::kBestOf, instance, 4);
  for (const auto& result : results) {
    EXPECT_EQ(result.assignment, want.assignment);
  }
  // One solve fanned out to all 24 replies: the first probe leads, and
  // every other copy hits or waits for it through the single-flight.
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 1u);
  EXPECT_EQ(registry.counter("cache.single_flight_bypass").value(), 0u);
}

TEST(CacheEngine, SolveItemWaitsForATicksInFlightSolve) {
  // A tick is solving a PTAS item when a solve_item caller (a reactor)
  // asks for the same problem under other labels. The caller waits for
  // the tick's solve instead of running its own.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  // A 512-job PTAS item that takes about 60 ms on a 4-vCPU VM.
  const Instance instance = mixed_corpus_instance(146, 1);
  ASSERT_EQ(instance.num_jobs(), 512u);
  const solver::SolverSpec ptas(BackendId::kPtas);
  const std::int64_t k = static_cast<std::int64_t>(instance.num_jobs() / 4);
  const auto serial_begin = std::chrono::steady_clock::now();
  const RebalanceResult want_a =
      engine::cached_serial_reference(ptas, instance, k);
  const double serial_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               serial_begin)
                               .count();
  // The caller below probes within microseconds of the tick's miss; the
  // solve it must overlap takes far longer.
  ASSERT_GE(serial_ms, 20.0);
  Rng rng(0x51);
  const Instance relabeled =
      relabel(instance, random_job_perm(instance.num_jobs(), rng),
              random_proc_perm(instance.num_procs, rng));
  const RebalanceResult want_b =
      engine::cached_serial_reference(ptas, relabeled, k);

  engine::BatchSolver::TickItem tick_item;
  tick_item.instance = &instance;
  tick_item.k = k;
  tick_item.spec = ptas;
  std::vector<RebalanceResult> tick_results;
  std::thread ticker(
      [&] { tick_results = solver.solve_items({&tick_item, 1}); });
  // The tick's probe missed: it leads the key and is solving it.
  while (registry.counter("cache.misses").value() == 0) {
    std::this_thread::yield();
  }
  engine::BatchSolver::TickItem item = tick_item;
  item.instance = &relabeled;
  const RebalanceResult got = solver.solve_item(item);
  ticker.join();

  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 1u);
  EXPECT_EQ(registry.counter("cache.single_flight_waits").value(), 1u);
  EXPECT_EQ(registry.counter("cache.single_flight_bypass").value(), 0u);
  ASSERT_EQ(tick_results.size(), 1u);
  EXPECT_EQ(tick_results[0].assignment, want_a.assignment);
  EXPECT_EQ(tick_results[0].makespan, want_a.makespan);
  EXPECT_EQ(got.assignment, want_b.assignment);
  EXPECT_EQ(got.makespan, want_b.makespan);
  EXPECT_EQ(got.moves, want_b.moves);
  EXPECT_EQ(got.cost, want_b.cost);
}

TEST(CacheEngine, ConcurrentTicksSharingKeysNeverDeadlock) {
  // Ticks racing over the same key set from several threads, each
  // submitter help-draining the others' tasks, keep meeting each other's
  // in-flight leaders and waiting for them. A leader runs its solve and
  // waits for nothing, so every tick must terminate, with every reply
  // byte-identical to the cached reference whether its key was a hit, a
  // wait for another thread's solve, or its own leader's solve.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  std::vector<Instance> instances;
  std::vector<RebalanceResult> want;
  for (std::size_t index = 0; index < 4; ++index) {
    instances.push_back(corpus_instance(index));
    want.push_back(
        engine::cached_serial_reference(options.spec, instances.back(), 3));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      std::vector<engine::BatchSolver::TickItem> items(instances.size());
      for (int round = 0; round < kRounds; ++round) {
        // Each thread's tick covers the same keys, rotated so concurrent
        // ticks keep meeting each other's in-flight leaders.
        for (std::size_t i = 0; i < instances.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(t)) % instances.size();
          items[i].instance = &instances[pick];
          items[i].k = 3;
          items[i].spec = options.spec;
        }
        const auto results = solver.solve_items(items);
        for (std::size_t i = 0; i < items.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(t)) % instances.size();
          if (results[i].assignment != want[pick].assignment) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Each key was solved at most once per eviction-free lifetime: never
  // past an in-flight leader.
  EXPECT_EQ(registry.counter("engine.instances_solved").value(),
            instances.size());
  EXPECT_EQ(registry.counter("cache.single_flight_bypass").value(), 0u);
}

TEST(CacheEngine, DedupKeysDistinguishAlgoAndPtasParameters) {
  // Satellite regression: a batch mixing per-item algorithm selections
  // over the SAME instance must not collapse into one cache entry.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  const Instance instance = corpus_instance(6);
  using Item = engine::BatchSolver::TickItem;
  std::vector<Item> items;
  const auto add = [&](BackendId backend, Cost budget, double eps) {
    Item item;
    item.instance = &instance;
    item.k = 5;
    item.spec = solver::SolverSpec(backend, {.budget = budget, .eps = eps});
    items.push_back(item);
  };
  add(BackendId::kGreedy, kInfCost, 1.0);
  add(BackendId::kMPartition, kInfCost, 1.0);
  add(BackendId::kBestOf, kInfCost, 1.0);
  add(BackendId::kPtas, kInfCost, 0.5);
  add(BackendId::kPtas, kInfCost, 0.25);  // distinct eps: distinct key
  // Budget/eps knobs are irrelevant to greedy: normalized into the SAME key.
  add(BackendId::kGreedy, 123, 0.125);

  const auto results = solver.solve_items(items);
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RebalanceResult want = engine::cached_serial_reference(
        items[i].spec, instance, items[i].k);
    EXPECT_EQ(results[i].assignment, want.assignment) << "item " << i;
    EXPECT_EQ(results[i].makespan, want.makespan) << "item " << i;
  }
  // 5 distinct keys (both greedy variants normalized together).
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 5u);
  EXPECT_EQ(results[0].assignment, results[5].assignment);
}

TEST(CacheEngine, ManyThreadsHammeringTheSolverStayConsistent) {
  // TSan target: concurrent solve_item callers over a small instance pool
  // exercise probe / single-flight wait / publish / eviction from many
  // threads; a caller meeting an identical in-flight key waits for it.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{1} << 16;  // small: forces evictions
  options.cache_shards = 2;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  constexpr std::size_t kInstances = 12;
  std::vector<Instance> instances;
  std::vector<RebalanceResult> want;
  instances.reserve(kInstances);
  for (std::size_t index = 0; index < kInstances; ++index) {
    instances.push_back(corpus_instance(index));
    want.push_back(engine::cached_serial_reference(
        options.spec, instances.back(), 3));
  }

  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int iter = 0; iter < 40; ++iter) {
        const auto index = static_cast<std::size_t>(
            rng.uniform_int(0, kInstances - 1));
        const RebalanceResult got = solve_alone(solver, instances[index], 3);
        if (got.assignment != want[index].assignment) failed.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // Byte accounting must still be exact after the churn.
  auto* cache = solver.solution_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(cache->bytes()),
            registry.gauge("cache.bytes").value());
  EXPECT_EQ(static_cast<std::int64_t>(cache->entries()),
            registry.gauge("cache.entries").value());
}

}  // namespace
}  // namespace lrb
