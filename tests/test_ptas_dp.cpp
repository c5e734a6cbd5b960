// Tests for the packed-state PTAS DP engine (algo/ptas.*): packed-key and
// flat-hash units, bit-identical parity with the retained reference DP
// (check/ptas_reference), budget-boundary accept/reject decisions,
// state-count regression on a pinned corpus, and the allocation-free
// steady-state contract of PtasScratch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "algo/ptas.h"
#include "check/ptas_reference.h"
#include "core/generators.h"
#include "util/flat_hash.h"
#include "util/packed_key.h"
#include "util/rng.h"

// ---- allocation-counting hook (whole test binary) -------------------------
// Counts every operator-new in the process; tests read the delta around the
// region of interest. Only the non-aligned forms are replaced - the library
// containers used by the DP never over-align.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lrb {
namespace {

// ---- packed keys ----------------------------------------------------------

TEST(PackedKey, TightLayoutRoundTrips) {
  PackedKeyCodec codec;
  const std::vector<std::int64_t> maxima{7, 0, 1, 100, 1'000'000};
  codec.plan(maxima);
  EXPECT_FALSE(codec.byte_aligned());
  EXPECT_EQ(codec.words(), 1u);  // 3 + 0 + 1 + 7 + 20 = 31 bits
  const std::vector<std::int64_t> values{5, 0, 1, 99, 999'999};
  std::uint64_t words[2] = {~0ull, ~0ull};
  codec.encode(values, words);
  std::vector<std::int64_t> decoded(values.size());
  codec.decode(words, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(PackedKey, FieldsSpanWordBoundaries) {
  PackedKeyCodec codec;
  // 40 + 40 + 40 = 120 bits: the second and third fields straddle word 0/1.
  const std::int64_t big = (std::int64_t{1} << 40) - 1;
  const std::vector<std::int64_t> maxima{big, big, big};
  codec.plan(maxima);
  EXPECT_FALSE(codec.byte_aligned());
  EXPECT_EQ(codec.words(), 2u);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<std::int64_t> values{
        rng.uniform_int(0, big), rng.uniform_int(0, big),
        rng.uniform_int(0, big)};
    std::uint64_t words[2];
    codec.encode(values, words);
    std::vector<std::int64_t> decoded(3);
    codec.decode(words, decoded);
    EXPECT_EQ(decoded, values);
  }
}

TEST(PackedKey, OverflowFallsBackToByteAlignment) {
  PackedKeyCodec codec;
  // 20 fields x 13 bits = 260 bits > 128: byte-aligned fallback (16 bits
  // per field, 5 words).
  const std::vector<std::int64_t> maxima(20, (1 << 13) - 1);
  codec.plan(maxima);
  EXPECT_TRUE(codec.byte_aligned());
  EXPECT_EQ(codec.words(), 5u);
  Rng rng(7);
  std::vector<std::int64_t> values(20);
  for (auto& v : values) v = rng.uniform_int(0, maxima[0]);
  std::uint64_t words[5];
  codec.encode(values, words);
  std::vector<std::int64_t> decoded(20);
  codec.decode(words, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(PackedKey, DistinctValuesDistinctKeys) {
  PackedKeyCodec codec;
  const std::vector<std::int64_t> maxima{5, 5, 5};
  codec.plan(maxima);
  std::vector<std::uint64_t> seen;
  for (std::int64_t a = 0; a <= 5; ++a) {
    for (std::int64_t b = 0; b <= 5; ++b) {
      for (std::int64_t c = 0; c <= 5; ++c) {
        std::uint64_t word = 0;
        codec.encode(std::vector<std::int64_t>{a, b, c}, &word);
        seen.push_back(word);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// ---- flat hash table ------------------------------------------------------

TEST(FlatIndexTable, InsertFindAndGrow) {
  FlatIndexTable table;
  table.reset(0);
  std::vector<std::uint64_t> keys;  // external arena, one word per key
  const auto equals = [&](std::uint64_t probe) {
    return [&, probe](std::uint32_t i) { return keys[i] == probe; };
  };
  const auto hash_of = [&](std::uint32_t i) { return hash_words(&keys[i], 1); };
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t key = k * 0x10001;
    const auto fresh = static_cast<std::uint32_t>(keys.size());
    const auto [idx, inserted] = table.find_or_insert(
        hash_words(&key, 1), fresh, equals(key), hash_of);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(idx, fresh);
    keys.push_back(key);
  }
  EXPECT_EQ(table.size(), 1000u);
  // Duplicate inserts return the original payload index.
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t key = k * 0x10001;
    const auto [idx, inserted] = table.find_or_insert(
        hash_words(&key, 1), 0xdeadu, equals(key), hash_of);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(idx, static_cast<std::uint32_t>(k));
  }
  // Lookups of absent keys miss.
  const std::uint64_t absent = 12345;
  EXPECT_EQ(table.find(hash_words(&absent, 1), equals(absent)),
            FlatIndexTable::kEmpty);
  // reset keeps capacity but empties the table.
  const auto cap = table.capacity();
  table.reset(1000);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), cap);
}

// ---- engine vs reference parity ------------------------------------------

Instance corpus_instance(std::uint64_t seed, std::size_t n, ProcId m,
                         std::int64_t max_size, std::uint64_t variant) {
  GeneratorOptions gen;
  gen.num_jobs = n;
  gen.num_procs = m;
  gen.max_size = max_size;
  gen.min_size = variant % 3 == 0 ? 0 : 1;
  gen.size_dist = static_cast<SizeDistribution>(variant % 5);
  gen.placement = static_cast<PlacementPolicy>((variant / 5) % 5);
  gen.cost_model = static_cast<CostModel>((variant / 25) % 5);
  gen.max_cost = 10;
  return random_instance(gen, seed);
}

/// Drives both engines over the shared guess sequence and asserts equality
/// of every observable at every guess. Returns the number of guesses that
/// were compared.
int assert_guess_parity(const Instance& instance, double eps, Cost budget,
                        std::size_t state_limit, PtasScratch& scratch) {
  const double delta = ptas_delta(eps);
  Size guess = ptas_scan_start(instance, budget);
  const Size stop = ptas_scan_stop(instance);
  int compared = 0;
  while (guess <= stop) {
    const auto eng = ptas_probe_guess(instance, guess, eps, budget,
                                      state_limit, scratch,
                                      /*reconstruct=*/true);
    const auto ref =
        ptas_reference_guess(instance, guess, eps, budget, state_limit);
    EXPECT_EQ(eng.representable, ref.representable) << "guess " << guess;
    EXPECT_EQ(eng.within_limit, ref.within_limit) << "guess " << guess;
    EXPECT_EQ(eng.constructed, ref.constructed) << "guess " << guess;
    EXPECT_EQ(eng.cost, ref.cost) << "guess " << guess;
    EXPECT_EQ(eng.states, ref.states) << "guess " << guess;
    if (eng.constructed && ref.constructed) {
      EXPECT_EQ(eng.assignment, ref.assignment) << "guess " << guess;
    }
    ++compared;
    if (!eng.within_limit) break;
    if (eng.constructed && eng.cost <= budget) break;
    guess = ptas_next_guess(guess, delta);
  }
  return compared;
}

TEST(PtasDpParity, PinnedCorpusAllGuessesBitIdentical) {
  PtasScratch scratch;  // deliberately reused across every case
  int total_compared = 0;
  std::uint64_t variant = 0;
  for (const double eps : {0.5, 1.0}) {
    for (const std::size_t n : {0u, 1u, 5u, 9u, 12u}) {
      for (const ProcId m : {1u, 2u, 3u}) {
        const auto instance =
            corpus_instance(1000 + variant, n, m, 50, variant);
        ++variant;
        for (const Cost budget : {kInfCost, Cost{6}, Cost{0}}) {
          total_compared += assert_guess_parity(instance, eps, budget,
                                                1'000'000, scratch);
        }
      }
    }
  }
  EXPECT_GT(total_compared, 80);
}

TEST(PtasDpParity, StateLimitAbortsAtIdenticalCounts) {
  PtasScratch scratch;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto instance = corpus_instance(7000 + seed, 12, 3, 1000, seed);
    for (const std::size_t limit : {1u, 5u, 40u, 300u}) {
      assert_guess_parity(instance, 0.5, kInfCost, limit, scratch);
    }
  }
}

TEST(PtasDpParity, BudgetBoundaryDecisionsMatch) {
  // At budgets C-1, C, C+1 around the unconstrained solution cost C the
  // engines must flip accept/reject identically (the branch-and-bound cuts
  // sit exactly on this boundary).
  PtasScratch scratch;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto instance = corpus_instance(4000 + seed, 10, 3, 30, seed);
    PtasOptions options;
    options.eps = 0.5;
    const auto base = ptas_rebalance(instance, options, scratch);
    ASSERT_TRUE(base.success);
    const Cost c = base.result.cost;
    for (const Cost budget : {c - 1, c, c + 1}) {
      if (budget < 0) continue;
      assert_guess_parity(instance, 0.5, budget, 1'000'000, scratch);
    }
  }
}

TEST(PtasDpRegression, NeverMoreStatesThanReference) {
  // The pruned engine must materialize exactly the reference's states: the
  // branch-and-bound cuts only ever remove transitions the reference
  // rejects after full evaluation, never fewer, never more.
  PtasScratch scratch;
  std::size_t total_states = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto instance = corpus_instance(5000 + seed, 11, 3, 100, seed);
    // The first scan guess is >= the max job (representable) and tight, so
    // the class structure - and the state space - is at its richest.
    const Size guess = ptas_scan_start(instance, kInfCost);
    const auto eng = ptas_probe_guess(instance, guess, 0.5, kInfCost,
                                      2'000'000, scratch);
    const auto ref =
        ptas_reference_guess(instance, guess, 0.5, kInfCost, 2'000'000);
    EXPECT_LE(eng.states, ref.states);
    EXPECT_EQ(eng.states, ref.states);
    total_states += eng.states;
  }
  EXPECT_GT(total_states, 500u);  // the corpus is not trivial
}

// ---- scratch reuse --------------------------------------------------------

TEST(PtasEngine, ScratchReuseIsBitIdentical) {
  PtasScratch reused;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto instance = corpus_instance(6000 + seed, 9, 3, 40, seed);
    PtasOptions options;
    options.eps = 0.6;
    options.budget = seed % 2 == 0 ? kInfCost : Cost{5};
    const auto fresh = ptas_rebalance(instance, options);
    const auto warm = ptas_rebalance(instance, options, reused);
    EXPECT_EQ(fresh.success, warm.success);
    EXPECT_EQ(fresh.accepted_guess, warm.accepted_guess);
    EXPECT_EQ(fresh.states, warm.states);
    EXPECT_EQ(fresh.guesses_evaluated, warm.guesses_evaluated);
    EXPECT_EQ(fresh.result.assignment, warm.result.assignment);
    EXPECT_EQ(fresh.result.cost, warm.result.cost);
    EXPECT_EQ(fresh.result.makespan, warm.result.makespan);
  }
}

// ---- allocation-free steady state ----------------------------------------

TEST(PtasEngine, WarmedGuessScanDoesNotAllocate) {
  // Deterministically pick a state-rich instance from the pinned corpus so
  // the steady-state claim is about a real DP, not a degenerate one.
  Instance instance;
  Size guess = 0;
  {
    PtasScratch probe_scratch;
    for (std::uint64_t variant = 0; variant < 32; ++variant) {
      auto candidate = corpus_instance(8080 + variant, 14, 4, 100, variant);
      const Size start = ptas_scan_start(candidate, kInfCost);
      const auto probe = ptas_probe_guess(candidate, start, 0.4, kInfCost,
                                          2'000'000, probe_scratch);
      if (probe.representable && probe.states > 100) {
        instance = std::move(candidate);
        guess = start;
        break;
      }
    }
  }
  ASSERT_GT(guess, 0);
  PtasScratch scratch;
  scratch.warm(instance.num_jobs(), instance.num_procs);
  // First probe may grow the arenas to this shape.
  const auto first = ptas_probe_guess(instance, guess, 0.4, kInfCost,
                                      2'000'000, scratch);
  ASSERT_TRUE(first.representable);
  ASSERT_GT(first.states, 100u);
  // Steady state: identical probes must not touch the heap at all.
  const auto before = g_allocations.load();
  const auto repeat = ptas_probe_guess(instance, guess, 0.4, kInfCost,
                                       2'000'000, scratch);
  const auto after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "warmed probe allocated";
  EXPECT_EQ(repeat.cost, first.cost);
  EXPECT_EQ(repeat.states, first.states);

  // A full scan over warmed state: every per-guess DP evaluation is
  // allocation-free too. The scan *bounds* (ptas_scan_start's certified
  // lower bounds) are a once-per-solve computation outside the steady-state
  // contract, so they are hoisted out of the measured region.
  const double delta = ptas_delta(0.5);
  const Size start = ptas_scan_start(instance, kInfCost);
  const Size stop = ptas_scan_stop(instance);
  for (Size g = start; g <= stop; g = ptas_next_guess(g, delta)) {
    (void)ptas_probe_guess(instance, g, 0.5, kInfCost, 2'000'000, scratch);
  }
  const auto warm_before = g_allocations.load();
  for (Size g = start; g <= stop; g = ptas_next_guess(g, delta)) {
    (void)ptas_probe_guess(instance, g, 0.5, kInfCost, 2'000'000, scratch);
  }
  EXPECT_EQ(g_allocations.load() - warm_before, 0u)
      << "warmed full guess scan allocated";
}

}  // namespace
}  // namespace lrb
