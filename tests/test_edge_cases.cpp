// Cross-cutting boundary conditions: degenerate instances (empty, single
// processor, duplicate sizes, zero-size jobs, all-large, all-small), budget
// extremes, and malformed input robustness. Every algorithm must behave
// sensibly - never crash, never violate a budget - at the edges.

#include <gtest/gtest.h>

#include <limits>

#include "algo/cost_greedy.h"
#include "algo/cost_partition.h"
#include "algo/exact.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/lpt.h"
#include "algo/m_partition.h"
#include "algo/move_min.h"
#include "algo/partition.h"
#include "algo/thresholds.h"
#include "algo/unit_exact.h"
#include "core/analysis.h"
#include "core/generators.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "lp/gap.h"
#include "solver/registry.h"

namespace lrb {
namespace {

Instance empty_instance(ProcId m) {
  Instance inst;
  inst.num_procs = m;
  return inst;
}

TEST(EdgeCases, EmptyInstanceEverywhere) {
  const auto inst = empty_instance(3);
  for (const auto& backend : solver::all_backends()) {
    const auto r = solver::solve_serial(backend.id, inst, 4);
    EXPECT_EQ(r.makespan, 0) << backend.name;
    EXPECT_EQ(r.moves, 0) << backend.name;
  }
  EXPECT_EQ(combined_lower_bound(inst, 2), 0);
  EXPECT_EQ(candidate_thresholds(inst), (std::vector<Size>{0}));
  const auto exact = exact_rebalance(inst);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(exact.best.makespan, 0);
  EXPECT_EQ(st_rebalance(inst, 0).makespan, 0);
}

TEST(EdgeCases, SingleJob) {
  const auto inst = make_instance({42}, {0}, 4);
  for (const auto& backend : solver::all_backends()) {
    const auto r = solver::solve_serial(backend.id, inst, 2);
    EXPECT_EQ(r.makespan, 42) << backend.name;  // indivisible: nothing to gain
  }
  EXPECT_EQ(max_job_bound(inst), 42);
  const auto outcome = partition_rebalance_at(inst, 42);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.result.makespan, 42);
}

TEST(EdgeCases, SingleProcessorAllAlgorithms) {
  const auto inst = make_instance({5, 7, 3}, {0, 0, 0}, 1);
  for (const auto& backend : solver::all_backends()) {
    EXPECT_EQ(solver::solve_serial(backend.id, inst, 3).makespan, 15)
        << backend.name;
  }
  CostPartitionOptions cp;
  cp.budget = 100;
  EXPECT_EQ(cost_partition_rebalance(inst, cp).makespan, 15);
  EXPECT_EQ(cost_greedy_rebalance(inst, 100).makespan, 15);
}

TEST(EdgeCases, AllJobsIdenticalSizes) {
  // Duplicate sizes stress tie-breaking paths everywhere.
  std::vector<Size> sizes(12, 7);
  std::vector<ProcId> initial(12, 0);
  const auto inst = make_instance(std::move(sizes), std::move(initial), 3);
  const auto mp = m_partition_rebalance(inst, 8);
  EXPECT_LE(mp.moves, 8);
  const auto fast = equal_size_exact_rebalance(inst, 8);
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->makespan, 7 * 4);  // 12 jobs / 3 procs = 4 each
  EXPECT_LE(static_cast<double>(mp.makespan),
            1.5 * static_cast<double>(fast->makespan));
}

TEST(EdgeCases, ZeroSizeJobsAreHarmless) {
  const auto inst = make_instance({0, 5, 0, 3, 0}, {0, 0, 1, 1, 2}, 3);
  for (const auto& backend : solver::all_backends()) {
    const auto r = solver::solve_serial(backend.id, inst, 2);
    EXPECT_FALSE(validate(inst, r.assignment).has_value()) << backend.name;
    EXPECT_GE(r.makespan, 5) << backend.name;
  }
  EXPECT_EQ(move_min_lower_bound(inst, 5), 0);
  const auto greedy = move_min_greedy(inst, 5);
  ASSERT_TRUE(greedy.has_value());
  EXPECT_EQ(greedy->moves, 0);
}

TEST(EdgeCases, AllLargeJobsAtTightThreshold) {
  // Every job > T/2: PARTITION is feasible iff L_T <= m.
  const auto fits = make_instance({6, 6, 6}, {0, 0, 0}, 3);
  const auto outcome = partition_rebalance_at(fits, 6);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.result.makespan, 6);  // one large job per processor
  EXPECT_EQ(outcome.large_total, 3);

  const auto overflow = make_instance({6, 6, 6, 6}, {0, 0, 0, 0}, 3);
  EXPECT_FALSE(partition_rebalance_at(overflow, 6).feasible);
}

TEST(EdgeCases, KZeroMatchesIdentityEverywhere) {
  GeneratorOptions opt;
  opt.num_jobs = 15;
  opt.num_procs = 4;
  const auto inst = random_instance(opt, 3);
  EXPECT_EQ(greedy_rebalance(inst, 0).assignment, inst.initial);
  EXPECT_EQ(m_partition_rebalance(inst, 0).makespan, inst.initial_makespan());
  ExactOptions exact_opt;
  exact_opt.max_moves = 0;
  EXPECT_EQ(exact_rebalance(inst, exact_opt).best.makespan,
            inst.initial_makespan());
}

TEST(EdgeCases, NegativeThresholdRejectedByMoveMin) {
  const auto inst = make_instance({4, 2}, {0, 0}, 2);
  // Target below every job size: only full eviction fits, but evicted jobs
  // cannot be placed anywhere -> infeasible.
  const auto exact = minimize_moves_exact(inst, 1);
  EXPECT_FALSE(exact.feasible);
  EXPECT_EQ(move_min_lower_bound(inst, 1), 2);
}

TEST(EdgeCases, HugeSizesDoNotOverflow) {
  const Size big = Size{1} << 40;
  const auto inst = make_instance({big, big, big / 2}, {0, 0, 1}, 2);
  const auto mp = m_partition_rebalance(inst, 1);
  EXPECT_LE(mp.moves, 1);
  EXPECT_GE(mp.makespan, big);
  // ceil-average = 2.5*big / 2 = 1.25*big dominates the other bounds.
  EXPECT_EQ(combined_lower_bound(inst, 1), big + big / 4);
  // LPT: big -> P0, big -> P1, big/2 -> tie broken to P0: makespan 1.5*big.
  EXPECT_EQ(lpt_schedule(inst).makespan, big + big / 2);
}

TEST(EdgeCases, LocalSearchOnAlreadyOptimal) {
  const auto inst = make_instance({4, 4, 4}, {0, 1, 2}, 3);
  LocalSearchOptions options;
  LocalSearchStats stats;
  const auto improved =
      local_search_improve(inst, no_move_result(inst), options, &stats);
  EXPECT_EQ(improved.makespan, 4);
  EXPECT_EQ(stats.rounds, 0);
}

TEST(EdgeCases, CostPartitionWithAllCostsAboveBudget) {
  const auto inst = make_instance({9, 3, 4}, {50, 50, 50}, {0, 0, 1}, 2);
  CostPartitionOptions cp;
  cp.budget = 10;  // cannot afford any move
  const auto r = cost_partition_rebalance(inst, cp);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.makespan, inst.initial_makespan());
}

TEST(EdgeCases, GapWithJobLargerThanAnyTarget) {
  GapInstance gap;
  gap.processing = {{kInfSize, kInfSize}};
  gap.cost = {{0, 0}};
  const auto result = gap_shmoys_tardos(gap, 100);
  // The job "fits" only at an astronomically large target; the binary search
  // still terminates and the result is feasible at that target.
  EXPECT_TRUE(result.feasible);
}

TEST(EdgeCases, IoRejectsGarbageWithoutCrashing) {
  const char* garbage[] = {
      "",
      "lrb-instance",
      "lrb-instance 1\nprocs x\n",
      "lrb-instance 1\nprocs 2\njobs 1\n1 1\n",          // truncated job line
      "lrb-instance 1\nprocs 2\njobs 2\n1 1 0\n",        // missing second job
      "lrb-instance 1\nprocs 0\njobs 0\n",               // zero processors
      "lrb-instance 1\nprocs 1\njobs 1\n-4 1 0\n",       // negative size
      "lrb-assignment 1\njobs 1\n0\n",                   // wrong magic
  };
  for (const char* text : garbage) {
    std::string error;
    EXPECT_FALSE(instance_from_string(text, &error).has_value()) << text;
  }
}

TEST(EdgeCases, AnalysisOnEmptyLoads) {
  const auto inst = empty_instance(2);
  const auto report = analyze_initial(inst);
  EXPECT_EQ(report.makespan, 0);
  EXPECT_EQ(report.gini, 0.0);
}

TEST(EdgeCases, ThresholdCandidatesOnUniformSizes) {
  // n identical jobs: candidate values collapse heavily; the scan must
  // still terminate and accept within budget.
  std::vector<Size> sizes(9, 4);
  std::vector<ProcId> initial(9, 0);
  const auto inst = make_instance(std::move(sizes), std::move(initial), 3);
  for (std::int64_t k : {0, 3, 6, 9}) {
    const auto r = m_partition_rebalance(inst, k);
    EXPECT_LE(r.moves, k);
    EXPECT_GE(r.makespan, 12);  // ceil-average = 12
  }
}

}  // namespace
}  // namespace lrb
