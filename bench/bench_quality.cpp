// Experiment E12: GREEDY vs M-PARTITION head to head at scale. Exact optima
// are out of reach here, so quality is reported against the certified lower
// bound max(ceil-average, max job, Lemma-1 k-removal) - an upper bound on
// the true ratio. Sweeps workload family, processor count and move budget.

#include <iostream>

#include "algo/greedy.h"
#include "algo/m_partition.h"
#include "bench_common.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::bench;
  if (!parse_bench_flags(argc, argv)) return 2;

  std::cout << "E12: quality at scale, ratio vs certified lower bound "
               "(n = 3000, 10 seeds per row)\n\n";
  Table table({"family", "m", "k", "initial", "greedy", "m-partition",
               "best-of", "moves(mp)"});
  for (const auto& family : large_families(smoke_cap<std::size_t>(3000, 300), 1)) {
    for (ProcId m : {ProcId{8}, ProcId{32}}) {
      for (std::int64_t k : {10, 40, 160}) {
        auto options = family.options;
        options.num_procs = m;
        std::vector<double> initial_r, greedy_r, mp_r, best_r;
        std::vector<double> mp_moves;
        for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(10, 1);
             ++seed) {
          const auto inst = random_instance(options, seed);
          const Size lb = combined_lower_bound(inst, k);
          initial_r.push_back(ratio(inst.initial_makespan(), lb));
          greedy_r.push_back(ratio(greedy_rebalance(inst, k).makespan, lb));
          const auto mp = m_partition_rebalance(inst, k);
          mp_r.push_back(ratio(mp.makespan, lb));
          mp_moves.push_back(static_cast<double>(mp.moves));
          best_r.push_back(ratio(
              solver::solve_serial(solver::BackendId::kBestOf, inst, k)
                  .makespan,
              lb));
        }
        table.row()
            .add(family.name)
            .add(static_cast<std::int64_t>(m))
            .add(k)
            .add(summarize(initial_r).mean, 4)
            .add(summarize(greedy_r).mean, 4)
            .add(summarize(mp_r).mean, 4)
            .add(summarize(best_r).mean, 4)
            .add(summarize(mp_moves).mean, 4);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: ratios fall toward 1 as k grows; "
               "M-PARTITION stops as soon as its 1.5-guarantee is met (few "
               "moves), GREEDY spends the whole budget chasing the minimum - "
               "so best-of combines cheap guarantees with greedy polish.\n";
  return 0;
}
