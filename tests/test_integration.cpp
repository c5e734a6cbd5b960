// Cross-module integration tests: the full pipelines a downstream user runs
// (generate -> serialize -> solve -> evaluate), the simulator driving the
// real algorithms, and the hardness gadgets flowing through the exact
// oracles.

#include <gtest/gtest.h>

#include <sstream>

#include "algo/exact.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/m_partition.h"
#include "core/analysis.h"
#include "core/generators.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "ext/conflict.h"
#include "ext/constrained.h"
#include "ext/threedm.h"
#include "lp/gap.h"
#include "sim/simulator.h"
#include "solver/registry.h"

namespace lrb {
namespace {

TEST(Integration, GenerateSerializeSolveEvaluate) {
  GeneratorOptions gen;
  gen.num_jobs = 80;
  gen.num_procs = 8;
  gen.placement = PlacementPolicy::kHotspot;
  gen.cost_model = CostModel::kProportional;
  const auto original = random_instance(gen, 2024);

  // Round-trip the instance and every algorithm's assignment through text.
  const auto parsed = instance_from_string(instance_to_string(original));
  ASSERT_TRUE(parsed.has_value());

  for (const auto& backend : solver::all_backends()) {
    if (backend.costed) continue;  // no cost budget in this pipeline
    const auto result = solver::solve_serial(backend.id, *parsed, 12);
    ASSERT_FALSE(validate(*parsed, result.assignment).has_value())
        << backend.name;

    std::ostringstream oss;
    write_assignment(oss, result.assignment);
    std::istringstream iss(oss.str());
    const auto replayed = read_assignment(iss);
    ASSERT_TRUE(replayed.has_value()) << backend.name;
    EXPECT_EQ(*replayed, result.assignment) << backend.name;

    // The analysis agrees with the result's own accounting.
    const auto report = analyze(*parsed, *replayed);
    EXPECT_EQ(report.makespan, result.makespan) << backend.name;
  }
}

TEST(Integration, PipelineImprovementChain) {
  // Each stage of the practical pipeline is no worse than the previous:
  // initial -> greedy -> best-of -> best-of + local search; all above the
  // certified lower bound and within budget.
  GeneratorOptions gen;
  gen.num_jobs = 60;
  gen.num_procs = 6;
  gen.placement = PlacementPolicy::kSingleProc;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto inst = random_instance(gen, seed);
    const std::int64_t k = 10;
    const Size lb = combined_lower_bound(inst, k);
    const auto greedy = greedy_rebalance(inst, k);
    const auto best = solver::solve_serial(solver::BackendId::kBestOf, inst, k);
    LocalSearchOptions options;
    options.max_moves = k;
    const auto polished = local_search_improve(inst, best, options);
    EXPECT_LE(greedy.makespan, inst.initial_makespan());
    EXPECT_LE(best.makespan, greedy.makespan);
    EXPECT_LE(polished.makespan, best.makespan);
    EXPECT_GE(polished.makespan, lb);
    EXPECT_LE(polished.moves, k);
  }
}

TEST(Integration, SimulatorDrivesRealAlgorithmsConsistently) {
  // After every simulated rebalance, the placement the simulator carries
  // matches what the policy returned, and the metrics match a recomputation.
  sim::SimOptions options;
  options.workload.num_sites = 80;
  options.num_servers = 6;
  options.steps = 60;
  options.rebalance_every = 6;
  options.move_budget = 5;
  options.seed = 4;
  sim::Simulator simulator(options, [](const Instance& inst, std::int64_t k) {
    const auto result = m_partition_rebalance(inst, k);
    // Policy-level invariants hold inside the loop too.
    EXPECT_LE(result.moves, k);
    EXPECT_FALSE(validate(inst, result.assignment).has_value());
    return result;
  });
  const auto result = simulator.run();
  ASSERT_EQ(result.series.size(), options.steps);
  for (const auto& step : result.series) {
    EXPECT_GE(step.makespan, step.ideal);
  }
}

TEST(Integration, GapPipelineMatchesDirectSolvers) {
  // Rebalancing -> GAP -> LP -> rounding -> back, compared with the direct
  // unit-cost algorithms on the same instance.
  GeneratorOptions gen;
  gen.num_jobs = 10;
  gen.num_procs = 3;
  gen.max_size = 17;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto inst = random_instance(gen, seed);
    const std::int64_t k = 4;
    ExactOptions exact_opt;
    exact_opt.max_moves = k;
    const auto exact = exact_rebalance(inst, exact_opt);
    const auto st = st_rebalance(inst, k);
    const auto mp = m_partition_rebalance(inst, k);
    EXPECT_LE(st.moves, k);
    EXPECT_LE(st.makespan, 2 * exact.best.makespan);
    EXPECT_LE(static_cast<double>(mp.makespan),
              1.5 * static_cast<double>(exact.best.makespan) + 1e-9);
  }
}

TEST(Integration, HardnessGadgetsAgreeAcrossFormulations) {
  // The SAME 3DM instance drives the Theorem 6 (costs), Corollary 1
  // (allowed sets) and Theorem 7 (conflicts) gadgets; all three oracles
  // must agree with the source's matchability.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (int matchable = 0; matchable < 2; ++matchable) {
      const auto source = matchable != 0 ? random_matchable_3dm(3, 2, seed)
                                         : unmatchable_3dm(3, 5, seed);
      const bool expect = solve_3dm(source).has_value();
      ASSERT_EQ(expect, matchable != 0);

      const auto constrained = constrained_gadget(source);
      const auto constrained_result = constrained_exact(
          constrained.instance,
          static_cast<std::int64_t>(constrained.instance.base.num_jobs()));
      EXPECT_EQ(constrained_result.best.makespan == 2, expect)
          << "seed=" << seed;

      const auto conflicts = conflict_gadget(source);
      EXPECT_EQ(conflict_exact(conflicts.instance).feasible, expect)
          << "seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace lrb
