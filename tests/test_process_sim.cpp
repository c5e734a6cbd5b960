// Tests for the process-migration simulator: determinism, lifetime-model
// behaviour, and the qualitative [6]-vs-[9] claim the paper's introduction
// cites (heavy-tailed lifetimes make migration pay; light-tailed ones make
// it nearly pointless).

#include <gtest/gtest.h>

#include "sim/process_sim.h"
#include "solver/registry.h"

namespace lrb::sim {
namespace {

ProcessSimOptions base_options(std::uint64_t seed) {
  ProcessSimOptions opt;
  opt.num_procs = 6;
  opt.steps = 800;
  opt.arrival_rate = 0.8;
  opt.mean_lifetime = 40.0;
  opt.seed = seed;
  return opt;
}

ProcessPolicy best_of_policy() {
  return [](const Instance& inst, std::int64_t k) {
    return solver::solve_serial(solver::BackendId::kBestOf, inst, k);
  };
}

TEST(ProcessSim, DeterministicInSeed) {
  const auto opt = base_options(5);
  const auto a = run_process_sim(opt, best_of_policy());
  const auto b = run_process_sim(opt, best_of_policy());
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.imbalance.mean, b.imbalance.mean);
}

TEST(ProcessSim, NoPolicyMeansNoMigrations) {
  auto opt = base_options(7);
  opt.rebalance_every = 0;
  const auto result = run_process_sim(opt, {});
  EXPECT_EQ(result.migrations, 0);
  EXPECT_GT(result.completed, 0);
  EXPECT_GE(result.imbalance.mean, 1.0);
}

TEST(ProcessSim, ProcessesCompleteAndPopulationIsStable) {
  const auto opt = base_options(9);
  const auto result = run_process_sim(opt, best_of_policy());
  // With arrival rate 0.8 and mean lifetime 40, Little's law puts the
  // steady-state population near 32.
  EXPECT_GT(result.mean_alive, 10.0);
  EXPECT_LT(result.mean_alive, 120.0);
  EXPECT_GT(result.completed, 300);
}

TEST(ProcessSim, MigrationHelpsMoreUnderHeavyTails) {
  // The E17 claim as a test: the imbalance reduction from migration is
  // larger under Pareto lifetimes than under exponential ones (averaged
  // over seeds to tame the tail variance).
  double heavy_gain = 0.0, light_gain = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto heavy = base_options(seed);
    heavy.lifetime_model = LifetimeModel::kPareto;
    auto heavy_idle = heavy;
    heavy_idle.rebalance_every = 0;
    heavy_gain += run_process_sim(heavy_idle, {}).imbalance.mean -
                  run_process_sim(heavy, best_of_policy()).imbalance.mean;

    auto light = base_options(seed);
    light.lifetime_model = LifetimeModel::kExponential;
    auto light_idle = light;
    light_idle.rebalance_every = 0;
    light_gain += run_process_sim(light_idle, {}).imbalance.mean -
                  run_process_sim(light, best_of_policy()).imbalance.mean;
  }
  EXPECT_GT(heavy_gain, 0.0);      // migration pays under heavy tails
  EXPECT_GT(heavy_gain, light_gain - 0.05);  // and pays (weakly) more
}

TEST(ProcessSim, SlowdownProxyTracksImbalance) {
  auto opt = base_options(11);
  auto idle = opt;
  idle.rebalance_every = 0;
  const auto managed = run_process_sim(opt, best_of_policy());
  const auto unmanaged = run_process_sim(idle, {});
  // Less imbalance should mean completed processes saw less co-load.
  EXPECT_LT(managed.mean_slowdown, unmanaged.mean_slowdown + 0.1);
  EXPECT_GT(managed.mean_slowdown, 0.5);
}

}  // namespace
}  // namespace lrb::sim
