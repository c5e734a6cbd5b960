// Determinism suite for the parallel batch-solving engine (src/engine).
//
// The contract under test: BatchSolver::solve is byte-identical to running
// the serial entry points one instance at a time, for every worker count,
// across repeated runs, per generator family, and for instances that
// outgrow the engine's warmed arenas.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/greedy.h"
#include "algo/m_partition.h"
#include "algo/ptas.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"

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
    BatchSolver::TickItem item;
    item.instance = &instances[i];
    item.k = ks[i];
    item.spec = options.spec;
    expect_same(solver.solve_item(item), results[i],
                "solve_item " + corpus[i].name);
  }
}

TEST(BatchSolver, SolveItemWithACallerArenaMatchesTheLeasedPath) {
  // One caller arena serves every backend and instance in turn, as a
  // reactor's does, so a solve that read what an earlier one left in it
  // would part from the leased path and the reference. Each path has its
  // own solver (and cache), so with the cache on both take the miss.
  const auto corpus = family_corpus();
  for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    obs::Registry arena_metrics;
    obs::Registry leased_metrics;
    BatchOptions options;
    options.workers = 1;
    options.cache_bytes = cache_bytes;
    options.metrics = &arena_metrics;
    BatchSolver with_arena(options);
    options.metrics = &leased_metrics;
    BatchSolver leased(options);
    engine::Scratch arena;
    arena.warm(engine::kWarmJobs, engine::kWarmProcs);
    for (const auto& backend : solver::all_backends()) {
      for (const auto& c : corpus) {
        // The costed scans run on the first 10 jobs, to keep this quick.
        Instance instance = c.instance;
        if (backend.costed && instance.num_jobs() > 10) {
          instance.sizes.resize(10);
          instance.move_costs.resize(10);
          instance.initial.resize(10);
        }
        BatchSolver::TickItem item;
        item.instance = &instance;
        item.k = c.k;
        item.spec = solver::SolverSpec(backend.id, {.budget = 8, .eps = 0.5});
        const RebalanceResult want =
            cache_bytes == 0
                ? engine::solve_serial_reference(item.spec, instance, c.k)
                : engine::cached_serial_reference(item.spec, instance, c.k);
        const std::string label = std::string(backend.name) + " " + c.name +
                                  " cache=" + std::to_string(cache_bytes);
        expect_same(with_arena.solve_item(item, &arena), want,
                    label + " arena");
        expect_same(leased.solve_item(item), want, label + " leased");
        if (cache_bytes > 0) {
          expect_same(with_arena.solve_item(item, &arena), want,
                      label + " arena warm");
        }
      }
    }
    EXPECT_EQ(arena_metrics.counter("engine.instances_solved").value(),
              leased_metrics.counter("engine.instances_solved").value());
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

TEST(BatchSolver, AWarmedArenaReusedAcrossInstanceShapesLeavesNothingStale) {
  // One worker, so consecutive solves lease the same warmed arena and its
  // size order: every shape below follows a different one, starting with a
  // larger instance, and none may read what the previous solve left.
  const auto generated = [](std::size_t jobs, ProcId procs,
                            std::uint64_t seed) {
    GeneratorOptions gen;
    gen.num_jobs = jobs;
    gen.num_procs = procs;
    gen.placement = PlacementPolicy::kHotspot;
    return random_instance(gen, seed);
  };
  const auto uniform = [](std::size_t jobs, ProcId procs, Size size) {
    std::vector<ProcId> initial(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      initial[j] = static_cast<ProcId>((j * j) % procs);
    }
    return make_instance(std::vector<Size>(jobs, size), std::move(initial),
                         procs);
  };
  Instance no_jobs;
  no_jobs.num_procs = 3;
  const std::vector<std::pair<std::string, Instance>> shapes = {
      {"512 jobs / 16 procs", generated(512, 16, 1)},
      {"32 jobs / 4 procs", generated(32, 4, 2)},
      {"no jobs", no_jobs},
      {"one processor", generated(40, 1, 3)},
      {"equal sizes", uniform(48, 5, 7)},
      {"zero sizes", uniform(30, 4, 0)},
      {"512 jobs again", generated(512, 16, 4)}};
  BatchOptions options;
  options.workers = 1;
  BatchSolver solver(options);
  for (const auto& [name, instance] : shapes) {
    const std::int64_t k = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(instance.num_jobs() / 4));
    for (BackendId backend : {BackendId::kGreedy, BackendId::kMPartition,
                              BackendId::kBestOf, BackendId::kLocalSearch}) {
      BatchSolver::TickItem item;
      item.instance = &instance;
      item.k = k;
      item.spec = backend;
      expect_same(solver.solve_item(item),
                  engine::solve_serial_reference(backend, instance, k),
                  std::string(solver::backend_name(backend)) + " " + name);
    }
  }
}

TEST(BatchSolver, SolveItemNeverRunsAnotherCallersQueuedItems) {
  // A one-worker engine busy with a tick of six PTAS items: the worker and
  // the tick's own thread each run one, and the other four wait in the
  // pool's FIFO queue. A caller of solve_item (a reactor replanning a
  // session) must solve its own 5-job item on the spot, not help drain
  // the queue and run someone else's PTAS first.
  const Instance heavy = mixed_corpus_instance(51, 1);
  ASSERT_EQ(heavy.num_jobs(), 512u);
  const solver::SolverSpec ptas(BackendId::kPtas);
  const std::int64_t heavy_k =
      static_cast<std::int64_t>(heavy.num_jobs() / 4);
  const auto serial_begin = std::chrono::steady_clock::now();
  const RebalanceResult serial =
      engine::solve_serial_reference(ptas, heavy, heavy_k);
  const double serial_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               serial_begin)
                               .count();

  obs::Registry registry;
  BatchOptions options;
  options.workers = 1;
  options.metrics = &registry;
  BatchSolver solver(options);
  std::vector<BatchSolver::TickItem> tick(6);
  for (BatchSolver::TickItem& item : tick) {
    item.instance = &heavy;
    item.k = heavy_k;
    item.spec = ptas;
  }
  std::vector<RebalanceResult> tick_results;
  std::thread ticker([&] { tick_results = solver.solve_items(tick); });
  // The tick has queued its items once it has counted its batch; give its
  // thread and the worker a moment to start on theirs.
  while (registry.counter("engine.batches").value() == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const Instance light = make_instance({5, 4, 3, 2, 1}, {0, 0, 0, 1, 1}, 2);
  BatchSolver::TickItem item;
  item.instance = &light;
  item.k = 1;
  item.spec = BackendId::kGreedy;
  const auto begin = std::chrono::steady_clock::now();
  const RebalanceResult result = solver.solve_item(item);
  const double item_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  ticker.join();

  EXPECT_LT(item_ms, serial_ms / 2)
      << "solve_item took " << item_ms << " ms; one serial PTAS solve took "
      << serial_ms << " ms";
  expect_same(result,
              engine::solve_serial_reference(BackendId::kGreedy, light, 1),
              "solve_item beside a busy tick");
  ASSERT_EQ(tick_results.size(), tick.size());
  for (const RebalanceResult& got : tick_results) {
    expect_same(got, serial, "queued PTAS item");
  }
}

TEST(BatchSolver, LargeInstancesMatchSerial) {
  // Past the engine's warmed arena bounds (4096 jobs, 64 processors), so
  // the leased arenas must grow, and then serve a small instance and the
  // large one again without reading what the previous solve left.
  GeneratorOptions gen;
  gen.num_jobs = (std::size_t{1} << 14) + 1;
  gen.num_procs = 96;
  gen.placement = PlacementPolicy::kHotspot;
  const Instance large = random_instance(gen, 7);
  gen.num_jobs = 32;
  gen.num_procs = 4;
  const Instance small = random_instance(gen, 8);
  const std::vector<std::pair<std::string, const Instance*>> order = {
      {"large", &large}, {"small", &small}, {"large again", &large}};
  BatchOptions options;
  options.workers = 4;
  BatchSolver solver(options);
  for (const auto& [name, instance] : order) {
    const std::int64_t k =
        static_cast<std::int64_t>(instance->num_jobs() / 8);
    for (BackendId backend : {BackendId::kGreedy, BackendId::kMPartition,
                              BackendId::kBestOf, BackendId::kLocalSearch}) {
      BatchSolver::TickItem item;
      item.instance = instance;
      item.k = k;
      item.spec = backend;
      expect_same(solver.solve_item(item),
                  engine::solve_serial_reference(backend, *instance, k),
                  std::string(solver::backend_name(backend)) + " " + name);
    }
  }
}

}  // namespace
}  // namespace lrb
