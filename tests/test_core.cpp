// Unit tests for src/core: instances, assignments, generators, lower bounds
// and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "core/proc_order.h"

namespace lrb {
namespace {

Instance small_fixture() {
  // P0: {8, 2}, P1: {5}, P2: {} -> loads {10, 5, 0}.
  return make_instance({8, 2, 5}, {0, 0, 1}, 3);
}

TEST(Instance, Accessors) {
  const auto inst = small_fixture();
  EXPECT_EQ(inst.num_jobs(), 3u);
  EXPECT_EQ(inst.num_procs, 3u);
  EXPECT_EQ(inst.total_size(), 15);
  EXPECT_EQ(inst.max_job(), 8);
  EXPECT_TRUE(inst.unit_costs());
  EXPECT_EQ(inst.initial_loads(), (std::vector<Size>{10, 5, 0}));
  EXPECT_EQ(inst.initial_makespan(), 10);
}

TEST(Instance, JobsByProc) {
  const auto inst = small_fixture();
  const auto by_proc = inst.jobs_by_proc();
  ASSERT_EQ(by_proc.size(), 3u);
  EXPECT_EQ(by_proc[0], (std::vector<JobId>{0, 1}));
  EXPECT_EQ(by_proc[1], (std::vector<JobId>{2}));
  EXPECT_TRUE(by_proc[2].empty());
}

TEST(ProcOrder, GroupsAscendBySizeThenIdWithPrefixSums) {
  // Processor 1 holds ties (ids 1, 4, 6 share size 3) and a zero; processor
  // 2 is empty; processor 3 holds one job.
  const Instance inst = make_instance({5, 3, 0, 9, 3, 0, 3, 2},
                                      {0, 1, 1, 3, 1, 0, 1, 0}, 4);
  const ProcOrder order(inst);
  ASSERT_EQ(order.num_procs(), 4u);
  EXPECT_EQ(order.num_jobs(), 8u);
  const auto group = [&](ProcId p) {
    return std::vector<JobId>(order.jobs(p).begin(), order.jobs(p).end());
  };
  const auto sizes = [&](ProcId p) {
    return std::vector<Size>(order.sizes(p).begin(), order.sizes(p).end());
  };
  const auto prefix = [&](ProcId p) {
    return std::vector<Size>(order.prefix(p).begin(), order.prefix(p).end());
  };
  EXPECT_EQ(group(0), (std::vector<JobId>{5, 7, 0}));
  EXPECT_EQ(sizes(0), (std::vector<Size>{0, 2, 5}));
  EXPECT_EQ(prefix(0), (std::vector<Size>{0, 2, 7}));
  EXPECT_EQ(group(1), (std::vector<JobId>{2, 1, 4, 6}));
  EXPECT_EQ(sizes(1), (std::vector<Size>{0, 3, 3, 3}));
  EXPECT_EQ(prefix(1), (std::vector<Size>{0, 3, 6, 9}));
  EXPECT_TRUE(group(2).empty());
  EXPECT_EQ(order.load(2), 0);
  EXPECT_EQ(group(3), (std::vector<JobId>{3}));
  EXPECT_EQ(prefix(3), (std::vector<Size>{9}));
  const auto loads = inst.initial_loads();
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(order.load(p), loads[p]) << p;
  EXPECT_EQ(order.head_load(1, 0), 0);
  EXPECT_EQ(order.head_load(1, 2), 3);
}

TEST(ProcOrder, RebuildingForASmallerInstanceLeavesNothingStale) {
  GeneratorOptions gen;
  gen.num_jobs = 300;
  gen.num_procs = 12;
  ProcOrder order(random_instance(gen, 5));
  const Instance small = make_instance({4, 1, 4}, {1, 1, 0}, 3);
  order.build(small);
  ASSERT_EQ(order.num_procs(), 3u);
  EXPECT_EQ(order.num_jobs(), 3u);
  EXPECT_EQ(order.load(0), 4);
  EXPECT_EQ(order.jobs(1).size(), 2u);
  EXPECT_EQ(order.jobs(1)[0], 1u);
  EXPECT_EQ(order.jobs(1)[1], 0u);
  EXPECT_EQ(order.prefix(1)[1], 5);
  EXPECT_TRUE(order.jobs(2).empty());
  Instance empty;
  empty.num_procs = 2;
  order.build(empty);
  EXPECT_EQ(order.num_procs(), 2u);
  EXPECT_EQ(order.num_jobs(), 0u);
  EXPECT_EQ(order.load(0) + order.load(1), 0);
}

TEST(Instance, ValidateRejectsBadShapes) {
  Instance inst = small_fixture();
  inst.move_costs.pop_back();
  EXPECT_TRUE(validate(inst).has_value());

  inst = small_fixture();
  inst.initial[0] = 3;  // out of range
  EXPECT_TRUE(validate(inst).has_value());

  inst = small_fixture();
  inst.sizes[1] = -1;
  EXPECT_TRUE(validate(inst).has_value());

  inst = small_fixture();
  inst.num_procs = 0;
  EXPECT_TRUE(validate(inst).has_value());

  EXPECT_FALSE(validate(small_fixture()).has_value());
}

TEST(Instance, ValidateCapsTheTotalSizeBelowInfSize) {
  // Built by hand: make_instance asserts validity.
  auto instance_of = [](std::vector<Size> sizes) {
    Instance inst;
    inst.move_costs.assign(sizes.size(), 1);
    inst.initial.assign(sizes.size(), 0);
    inst.sizes = std::move(sizes);
    inst.num_procs = 2;
    return inst;
  };
  EXPECT_FALSE(validate(instance_of({kInfSize - 1})).has_value());
  EXPECT_FALSE(validate(instance_of({kInfSize - 6, 5})).has_value());
  EXPECT_TRUE(validate(instance_of({kInfSize})).has_value());
  EXPECT_TRUE(validate(instance_of({kInfSize - 5, 5})).has_value());
  // Sums that overflow int64 are rejected, not wrapped.
  const Size half = Size{1} << 62;
  EXPECT_TRUE(validate(instance_of({half, half, 5})).has_value());
  const Size max = std::numeric_limits<Size>::max();
  EXPECT_TRUE(validate(instance_of({max, max})).has_value());
}

TEST(Assignment, LoadsMakespanMovesCost) {
  const auto inst = small_fixture();
  const Assignment a{2, 0, 1};  // job 0 moved to P2
  EXPECT_EQ(loads(inst, a), (std::vector<Size>{2, 5, 8}));
  EXPECT_EQ(makespan(inst, a), 8);
  EXPECT_EQ(moves_used(inst, a), 1);
  EXPECT_EQ(relocation_cost(inst, a), 1);
}

TEST(Assignment, CostUsesPerJobCosts) {
  auto inst = make_instance({8, 2, 5}, {7, 3, 2}, {0, 0, 1}, 3);
  const Assignment a{2, 2, 1};
  EXPECT_EQ(relocation_cost(inst, a), 10);  // jobs 0 and 1 moved
  EXPECT_EQ(moves_used(inst, a), 2);
}

TEST(Assignment, ValidateChecksShape) {
  const auto inst = small_fixture();
  EXPECT_TRUE(validate(inst, Assignment{0, 0}).has_value());
  EXPECT_TRUE(validate(inst, Assignment{0, 0, 5}).has_value());
  EXPECT_FALSE(validate(inst, Assignment{0, 0, 1}).has_value());
}

TEST(Assignment, NoMoveResult) {
  const auto inst = small_fixture();
  const auto r = no_move_result(inst);
  EXPECT_EQ(r.makespan, 10);
  EXPECT_EQ(r.moves, 0);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.assignment, inst.initial);
}

TEST(Generators, RandomInstanceDeterministicInSeed) {
  GeneratorOptions opt;
  opt.num_jobs = 200;
  opt.num_procs = 7;
  const auto a = random_instance(opt, 123);
  const auto b = random_instance(opt, 123);
  const auto c = random_instance(opt, 124);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.initial, b.initial);
  EXPECT_NE(a.sizes == c.sizes && a.initial == c.initial, true);
}

TEST(Generators, SizesRespectBounds) {
  GeneratorOptions opt;
  opt.num_jobs = 500;
  opt.min_size = 10;
  opt.max_size = 20;
  for (auto dist : {SizeDistribution::kUniform, SizeDistribution::kZipf}) {
    opt.size_dist = dist;
    const auto inst = random_instance(opt, 5);
    for (Size s : inst.sizes) {
      EXPECT_GE(s, 10);
      EXPECT_LE(s, 20);
    }
  }
}

TEST(Generators, UnitDistributionAllOnes) {
  GeneratorOptions opt;
  opt.size_dist = SizeDistribution::kUnit;
  opt.num_jobs = 50;
  const auto inst = random_instance(opt, 9);
  for (Size s : inst.sizes) EXPECT_EQ(s, 1);
}

TEST(Generators, SingleProcPlacementPilesUp) {
  GeneratorOptions opt;
  opt.placement = PlacementPolicy::kSingleProc;
  opt.num_jobs = 30;
  opt.num_procs = 4;
  const auto inst = random_instance(opt, 3);
  for (ProcId p : inst.initial) EXPECT_EQ(p, 0u);
}

TEST(Generators, HotspotConcentratesLoad) {
  GeneratorOptions opt;
  opt.placement = PlacementPolicy::kHotspot;
  opt.hotspot_fraction = 0.1;
  opt.hotspot_mass = 0.9;
  opt.num_jobs = 2000;
  opt.num_procs = 10;
  const auto inst = random_instance(opt, 21);
  const auto l = inst.initial_loads();
  // Hot processor 0 should dwarf the mean of the rest.
  const Size rest =
      std::accumulate(l.begin() + 1, l.end(), Size{0}) / (10 - 1);
  EXPECT_GT(l[0], 3 * rest);
}

TEST(Generators, BalancedPlacementIsNearlyFlat) {
  GeneratorOptions opt;
  opt.placement = PlacementPolicy::kBalanced;
  opt.num_jobs = 500;
  opt.num_procs = 5;
  const auto inst = random_instance(opt, 8);
  const auto l = inst.initial_loads();
  const Size mx = *std::max_element(l.begin(), l.end());
  const Size mn = *std::min_element(l.begin(), l.end());
  EXPECT_LE(mx - mn, inst.max_job());
}

TEST(Generators, CostModels) {
  GeneratorOptions opt;
  opt.num_jobs = 100;
  opt.cost_model = CostModel::kProportional;
  auto inst = random_instance(opt, 2);
  for (std::size_t j = 0; j < inst.num_jobs(); ++j) {
    EXPECT_EQ(inst.move_costs[j], std::max<Cost>(1, inst.sizes[j]));
  }
  opt.cost_model = CostModel::kTwoValued;
  opt.two_value_p = 3;
  opt.two_value_q = 11;
  inst = random_instance(opt, 2);
  for (Cost c : inst.move_costs) EXPECT_TRUE(c == 3 || c == 11);
  opt.cost_model = CostModel::kInverse;
  inst = random_instance(opt, 2);
  const Size mx = inst.max_job();
  for (std::size_t j = 0; j < inst.num_jobs(); ++j) {
    EXPECT_EQ(inst.move_costs[j], mx - inst.sizes[j] + 1);
  }
}

TEST(Generators, GreedyTightFamilyShape) {
  const auto family = greedy_tight_instance(4);
  const auto& inst = family.instance;
  EXPECT_EQ(inst.num_procs, 4u);
  EXPECT_EQ(inst.num_jobs(), 1u + 4u * 3u);
  EXPECT_EQ(inst.max_job(), 4);
  EXPECT_EQ(family.k, 3);
  EXPECT_EQ(family.opt, 4);
  EXPECT_EQ(inst.initial_makespan(), 2 * 4 - 1);
  // OPT is witnessed by moving the three unit jobs off processor 0.
  Assignment witness = inst.initial;
  int moved = 0;
  for (std::size_t j = 1; j < inst.num_jobs() && moved < 3; ++j) {
    if (inst.initial[j] == 0) {
      witness[j] = static_cast<ProcId>(1 + moved);
      ++moved;
    }
  }
  EXPECT_EQ(makespan(inst, witness), family.opt);
  EXPECT_EQ(moves_used(inst, witness), family.k);
}

TEST(Generators, PartitionTightFamilyShape) {
  const auto family = partition_tight_instance();
  EXPECT_EQ(family.instance.initial_makespan(), 3);
  EXPECT_EQ(family.opt, 2);
  // Witness: move the size-1 job on P0 over to P1.
  Assignment witness{1, 0, 1};
  EXPECT_EQ(makespan(family.instance, witness), 2);
  EXPECT_EQ(moves_used(family.instance, witness), 1);
}

TEST(Generators, UnitInstanceCounts) {
  const auto inst = unit_instance({3, 0, 5});
  EXPECT_EQ(inst.num_jobs(), 8u);
  EXPECT_EQ(inst.initial_loads(), (std::vector<Size>{3, 0, 5}));
}

TEST(LowerBounds, AverageAndMaxJob) {
  const auto inst = small_fixture();
  EXPECT_EQ(average_load_bound(inst), 5);  // ceil(15/3)
  EXPECT_EQ(max_job_bound(inst), 8);
}

TEST(LowerBounds, KRemovalMatchesLemma1OnFixture) {
  const auto inst = small_fixture();
  // k=0: initial makespan 10. k=1: remove 8 -> loads {2,5,0} -> 5.
  EXPECT_EQ(k_removal_bound(inst, 0), 10);
  EXPECT_EQ(k_removal_bound(inst, 1), 5);
  EXPECT_EQ(k_removal_bound(inst, 2), 2);
  EXPECT_EQ(k_removal_bound(inst, 100), 0);
}

TEST(LowerBounds, KRemovalIsMinOverAllDeletions) {
  // Brute-force check on random small instances: greedy removal achieves
  // the minimum max-load over all ways of deleting k jobs (Lemma 1).
  GeneratorOptions opt;
  opt.num_jobs = 8;
  opt.num_procs = 3;
  opt.max_size = 9;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto inst = random_instance(opt, seed);
    for (std::int64_t k = 0; k <= 3; ++k) {
      Size best = kInfSize;
      const auto n = inst.num_jobs();
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (std::popcount(mask) != k) continue;
        std::vector<Size> load(inst.num_procs, 0);
        for (std::size_t j = 0; j < n; ++j) {
          if ((mask >> j & 1u) == 0) load[inst.initial[j]] += inst.sizes[j];
        }
        best = std::min(best, *std::max_element(load.begin(), load.end()));
      }
      EXPECT_EQ(k_removal_bound(inst, k), best)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(LowerBounds, BudgetRemovalBasics) {
  const auto inst = small_fixture();  // unit costs
  EXPECT_EQ(budget_removal_bound(inst, 0), 10);
  // Budget 1 = one (fractional) unit of cost: trimming P0 by 8 costs
  // 8/10-ish fractionally, so the bound drops well below 10.
  EXPECT_LE(budget_removal_bound(inst, 1), 5);
  EXPECT_GE(budget_removal_bound(inst, 1), 0);
  EXPECT_EQ(budget_removal_bound(inst, 100), 0);
}

TEST(LowerBounds, BudgetRemovalNeverExceedsTrueOpt) {
  GeneratorOptions opt;
  opt.num_jobs = 10;
  opt.num_procs = 3;
  opt.cost_model = CostModel::kUniform;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = random_instance(opt, seed);
    // The bound at an enormous budget is <= the fully-relaxed LPT result.
    EXPECT_LE(budget_removal_bound(inst, 1'000'000), inst.initial_makespan());
  }
}

TEST(LowerBounds, CombinedDominatesParts) {
  const auto inst = small_fixture();
  for (std::int64_t k = 0; k <= 3; ++k) {
    const Size combined = combined_lower_bound(inst, k);
    EXPECT_GE(combined, average_load_bound(inst));
    EXPECT_GE(combined, max_job_bound(inst));
    EXPECT_GE(combined, k_removal_bound(inst, k));
  }
}

TEST(Io, InstanceRoundTrip) {
  GeneratorOptions opt;
  opt.num_jobs = 64;
  opt.num_procs = 5;
  opt.cost_model = CostModel::kUniform;
  const auto inst = random_instance(opt, 77);
  const std::string text = instance_to_string(inst);
  std::string error;
  const auto parsed = instance_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sizes, inst.sizes);
  EXPECT_EQ(parsed->move_costs, inst.move_costs);
  EXPECT_EQ(parsed->initial, inst.initial);
  EXPECT_EQ(parsed->num_procs, inst.num_procs);
}

TEST(Io, CommentsAndWhitespaceTolerated) {
  const std::string text =
      "# a header comment\n"
      "lrb-instance 1\n"
      "procs 2\n"
      "jobs 2   # two jobs\n"
      "5 1 0\n"
      "7 2 1\n";
  std::string error;
  const auto parsed = instance_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sizes, (std::vector<Size>{5, 7}));
}

TEST(Io, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(instance_from_string("nonsense", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(instance_from_string("lrb-instance 2\nprocs 1\njobs 0\n")
                   .has_value());
  EXPECT_FALSE(
      instance_from_string("lrb-instance 1\nprocs 1\njobs 1\n5 1\n").has_value());
  // Out-of-range initial processor is caught by validate().
  EXPECT_FALSE(
      instance_from_string("lrb-instance 1\nprocs 1\njobs 1\n5 1 3\n").has_value());
}

TEST(Io, AssignmentRoundTrip) {
  const Assignment a{0, 2, 1, 1};
  std::ostringstream oss;
  write_assignment(oss, a);
  std::istringstream iss(oss.str());
  const auto parsed = read_assignment(iss);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

}  // namespace
}  // namespace lrb
