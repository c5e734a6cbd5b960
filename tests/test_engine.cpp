// Determinism suite for the parallel batch-solving engine (src/engine).
//
// The contract under test: BatchSolver::solve is byte-identical to running
// the serial entry points one instance at a time, for every worker count,
// across repeated runs, and per generator family; and the intra-instance
// parallel scans (chunked M-PARTITION, wave-parallel PTAS) reproduce their
// serial counterparts exactly, statistics included.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/greedy.h"
#include "algo/m_partition.h"
#include "algo/ptas.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "engine/batch_solver.h"
#include "solver/registry.h"
#include "util/thread_pool.h"

namespace lrb {
namespace {

using engine::BatchOptions;
using engine::BatchSolver;
using solver::BackendId;

struct Case {
  std::string name;
  Instance instance;
  std::int64_t k = 0;
};

/// Every generator family (size distribution x placement) at a small size,
/// plus the structured and degenerate corners.
std::vector<Case> family_corpus() {
  std::vector<Case> cases;
  const struct {
    const char* name;
    SizeDistribution dist;
  } dists[] = {{"uniform", SizeDistribution::kUniform},
               {"bimodal", SizeDistribution::kBimodal},
               {"zipf", SizeDistribution::kZipf},
               {"exponential", SizeDistribution::kExponential}};
  const struct {
    const char* name;
    PlacementPolicy placement;
  } placements[] = {{"random", PlacementPolicy::kRandom},
                    {"hotspot", PlacementPolicy::kHotspot},
                    {"zipf-procs", PlacementPolicy::kZipfProcs},
                    {"balanced", PlacementPolicy::kBalanced},
                    {"single-proc", PlacementPolicy::kSingleProc}};
  std::uint64_t seed = 100;
  for (const auto& dist : dists) {
    for (const auto& placement : placements) {
      GeneratorOptions gen;
      gen.num_jobs = 40;
      gen.num_procs = 6;
      gen.max_size = 120;
      gen.size_dist = dist.dist;
      gen.placement = placement.placement;
      Case c;
      c.name = std::string(dist.name) + "/" + placement.name;
      c.instance = random_instance(gen, seed++);
      c.k = 5;
      cases.push_back(std::move(c));
    }
  }
  // Structured tight families.
  {
    Case c;
    c.name = "greedy-tight";
    const auto family = greedy_tight_instance(4);
    c.instance = family.instance;
    c.k = family.k;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.name = "partition-tight";
    const auto family = partition_tight_instance();
    c.instance = family.instance;
    c.k = family.k;
    cases.push_back(std::move(c));
  }
  // Degenerate corners.
  {
    Case c;
    c.name = "empty";
    c.instance.num_procs = 3;
    c.k = 2;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.name = "single-job";
    c.instance.num_procs = 2;
    c.instance.sizes = {7};
    c.instance.move_costs = {1};
    c.instance.initial = {0};
    c.k = 1;
    cases.push_back(std::move(c));
  }
  return cases;
}

void expect_same(const RebalanceResult& got, const RebalanceResult& want,
                 const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.makespan, want.makespan) << label;
  EXPECT_EQ(got.moves, want.moves) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.threshold, want.threshold) << label;
}

/// Independent per-backend reference: calls the library entry points
/// directly, NOT through the registry dispatch, so these tests would catch
/// a registry table entry wired to the wrong algorithm. (The new lpt /
/// local-search backends get the same treatment in test_solver.cpp.)
RebalanceResult serial_reference(BackendId backend, const Instance& instance,
                                 std::int64_t k) {
  switch (backend) {
    case BackendId::kGreedy:
      return greedy_rebalance(instance, k);
    case BackendId::kMPartition:
      return m_partition_rebalance(instance, k);
    case BackendId::kBestOf: {
      auto greedy = greedy_rebalance(instance, k);
      auto partition = m_partition_rebalance(instance, k);
      // PARTITION wins ties.
      return partition.makespan <= greedy.makespan ? std::move(partition)
                                                   : std::move(greedy);
    }
    default:
      break;
  }
  PtasOptions options;
  return ptas_rebalance(instance, options).result;
}

TEST(BatchSolver, MatchesSerialAcrossWorkerCountsAndRuns) {
  const auto corpus = family_corpus();
  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  for (const auto& c : corpus) {
    instances.push_back(c.instance);
    ks.push_back(c.k);
  }
  for (BackendId backend : {BackendId::kGreedy, BackendId::kMPartition,
                            BackendId::kBestOf}) {
    std::vector<RebalanceResult> expected;
    for (const auto& c : corpus) {
      expected.push_back(serial_reference(backend, c.instance, c.k));
    }
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      BatchOptions options;
      options.workers = workers;
      options.spec = backend;
      BatchSolver solver(options);
      for (int run = 0; run < 2; ++run) {
        const auto results = solver.solve(instances, ks);
        ASSERT_EQ(results.size(), corpus.size());
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          expect_same(results[i], expected[i],
                      std::string(solver::backend_name(backend)) +
                          " workers=" +
                          std::to_string(workers) + " run=" +
                          std::to_string(run) + " case=" + corpus[i].name);
        }
      }
    }
  }
}

TEST(BatchSolver, ForcedIntraParallelPathStaysIdentical) {
  // Drop the intra-instance threshold to 0 so even tiny instances route
  // through the chunked parallel scan; results must not change.
  const auto corpus = family_corpus();
  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  for (const auto& c : corpus) {
    instances.push_back(c.instance);
    ks.push_back(c.k);
  }
  std::vector<RebalanceResult> expected;
  for (const auto& c : corpus) {
    expected.push_back(
        serial_reference(BackendId::kMPartition, c.instance, c.k));
  }
  BatchOptions options;
  options.workers = 4;
  options.spec = BackendId::kMPartition;
  options.intra_parallel_min_jobs = 0;
  BatchSolver solver(options);
  const auto results = solver.solve(instances, ks);
  ASSERT_EQ(results.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_same(results[i], expected[i], "intra-parallel " + corpus[i].name);
  }
}

TEST(BatchSolver, PtasMatchesSerial) {
  GeneratorOptions gen;
  gen.num_jobs = 10;
  gen.num_procs = 3;
  gen.max_size = 25;
  gen.placement = PlacementPolicy::kHotspot;
  gen.cost_model = CostModel::kUniform;
  gen.max_cost = 5;
  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  std::vector<RebalanceResult> expected;
  PtasOptions ptas;
  ptas.budget = 8;
  ptas.eps = 0.5;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    instances.push_back(random_instance(gen, seed));
    ks.push_back(3);
    expected.push_back(ptas_rebalance(instances.back(), ptas).result);
  }
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions options;
    options.workers = workers;
    options.spec = solver::SolverSpec(BackendId::kPtas,
                                      {.budget = ptas.budget, .eps = ptas.eps});
    BatchSolver solver(options);
    const auto results = solver.solve(instances, ks);
    ASSERT_EQ(results.size(), instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      expect_same(results[i], expected[i],
                  "ptas workers=" + std::to_string(workers) + " i=" +
                      std::to_string(i));
    }
  }
}

TEST(BatchSolver, SolveOneMatchesSolveAndFillsLatencies) {
  const auto corpus = family_corpus();
  BatchOptions options;
  options.workers = 2;
  BatchSolver solver(options);
  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  for (const auto& c : corpus) {
    instances.push_back(c.instance);
    ks.push_back(c.k);
  }
  std::vector<double> latencies;
  const auto results = solver.solve(instances, ks, &latencies);
  ASSERT_EQ(latencies.size(), corpus.size());
  for (double l : latencies) EXPECT_GE(l, 0.0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_same(solver.solve_one(instances[i], ks[i]), results[i],
                "solve_one " + corpus[i].name);
  }
}

TEST(BatchSolver, EmptyBatchIsFine) {
  BatchSolver solver;
  const auto results = solver.solve({}, {});
  EXPECT_TRUE(results.empty());
}

TEST(BatchSolver, EmptyBatchFillsEmptyLatencies) {
  BatchSolver solver;
  std::vector<double> latencies{1.0, 2.0, 3.0};  // stale contents must go
  const auto results = solver.solve({}, {}, &latencies);
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(latencies.empty());
  const auto item_results = solver.solve_items({}, &latencies);
  EXPECT_TRUE(item_results.empty());
  EXPECT_TRUE(latencies.empty());
}

TEST(BatchSolver, ManyMoreWorkersThanInstances) {
  // Workers far beyond the instance count must neither deadlock nor
  // perturb results (idle workers simply never pick up a task).
  const auto corpus = family_corpus();
  BatchOptions options;
  options.workers = 16;
  BatchSolver solver(options);
  std::vector<Instance> instances{corpus[0].instance, corpus[1].instance};
  std::vector<std::int64_t> ks{corpus[0].k, corpus[1].k};
  const auto results = solver.solve(instances, ks);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_same(results[i],
                serial_reference(BackendId::kBestOf, instances[i], ks[i]),
                "workers>>instances i=" + std::to_string(i));
  }
}

TEST(BatchSolver, SolveItemsMixesAlgosWithinOneTick) {
  // The serving layer's entry point: items of one tick may carry different
  // algorithms yet each must match its own serial reference.
  const auto corpus = family_corpus();
  BatchOptions options;
  options.workers = 4;
  BatchSolver solver(options);
  const BackendId backends[] = {BackendId::kGreedy, BackendId::kMPartition,
                                BackendId::kBestOf};
  std::vector<BatchSolver::TickItem> items;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    BatchSolver::TickItem item;
    item.instance = &corpus[i].instance;
    item.k = corpus[i].k;
    item.spec = backends[i % std::size(backends)];
    items.push_back(item);
  }
  std::vector<double> latencies;
  const auto results = solver.solve_items(items, &latencies);
  ASSERT_EQ(results.size(), items.size());
  ASSERT_EQ(latencies.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_GE(latencies[i], 0.0);
    expect_same(results[i],
                serial_reference(items[i].spec.backend, corpus[i].instance,
                                 corpus[i].k),
                "solve_items mixed i=" + std::to_string(i));
  }
}

TEST(BatchSolver, SerialReferenceMatchesLibraryEntryPoints) {
  // Name / alias / wire-id round-trips live in test_solver.cpp; here we
  // only pin the engine's serial reference to the library entry points.
  const auto corpus = family_corpus();
  for (BackendId backend : {BackendId::kGreedy, BackendId::kMPartition,
                            BackendId::kBestOf}) {
    for (const auto& c : corpus) {
      expect_same(engine::solve_serial_reference(backend, c.instance, c.k),
                  serial_reference(backend, c.instance, c.k),
                  std::string("solve_serial_reference ") +
                      solver::backend_name(backend) + " " + c.name);
    }
  }
}

TEST(ParallelMPartition, BitIdenticalIncludingStatsForAnyChunkCount) {
  ThreadPool pool(4);
  const auto corpus = family_corpus();
  for (const auto& c : corpus) {
    MPartitionStats serial_stats;
    const auto serial = m_partition_rebalance(c.instance, c.k, &serial_stats);
    for (std::size_t chunks : {std::size_t{2}, std::size_t{3},
                               std::size_t{8}}) {
      MPartitionStats par_stats;
      const auto par = m_partition_rebalance_parallel(c.instance, c.k, pool,
                                                      &par_stats, chunks);
      expect_same(par, serial,
                  c.name + " chunks=" + std::to_string(chunks));
      EXPECT_EQ(par_stats.accepted_threshold, serial_stats.accepted_threshold)
          << c.name;
      EXPECT_EQ(par_stats.start_threshold, serial_stats.start_threshold)
          << c.name;
      EXPECT_EQ(par_stats.removals, serial_stats.removals) << c.name;
      EXPECT_EQ(par_stats.guesses_evaluated, serial_stats.guesses_evaluated)
          << c.name;
    }
  }
}

TEST(ParallelMPartition, LargerInstanceAutoChunking) {
  ThreadPool pool(4);
  GeneratorOptions gen;
  gen.num_jobs = 5000;
  gen.num_procs = 32;
  gen.max_size = 2000;
  gen.placement = PlacementPolicy::kHotspot;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto inst = random_instance(gen, seed);
    MPartitionStats serial_stats, par_stats;
    const auto serial = m_partition_rebalance(inst, 50, &serial_stats);
    // chunks = 0: the implementation picks the chunking itself.
    const auto par =
        m_partition_rebalance_parallel(inst, 50, pool, &par_stats, 0);
    expect_same(par, serial, "auto-chunk seed=" + std::to_string(seed));
    EXPECT_EQ(par_stats.guesses_evaluated, serial_stats.guesses_evaluated);
  }
}

TEST(ParallelPtas, BitIdenticalForAnyWaveSize) {
  ThreadPool pool(4);
  GeneratorOptions gen;
  gen.num_jobs = 10;
  gen.num_procs = 3;
  gen.max_size = 25;
  gen.placement = PlacementPolicy::kHotspot;
  gen.cost_model = CostModel::kUniform;
  gen.max_cost = 5;
  PtasOptions options;
  options.budget = 8;
  options.eps = 0.5;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = random_instance(gen, seed);
    const auto serial = ptas_rebalance(inst, options);
    for (std::size_t wave : {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
      const auto par = ptas_rebalance_parallel(inst, options, pool, wave);
      const std::string label =
          "seed=" + std::to_string(seed) + " wave=" + std::to_string(wave);
      EXPECT_EQ(par.success, serial.success) << label;
      expect_same(par.result, serial.result, label);
      EXPECT_EQ(par.accepted_guess, serial.accepted_guess) << label;
      EXPECT_EQ(par.states, serial.states) << label;
      EXPECT_EQ(par.guesses_evaluated, serial.guesses_evaluated) << label;
    }
  }
}

}  // namespace
}  // namespace lrb
