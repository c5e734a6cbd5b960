// Experiment E11: the motivating web-farm scenario. Policies compared over
// drifting + flash-crowd workloads across seeds and move budgets: bounded-
// move rebalancing tracks the fractional optimum at a tiny fraction of full
// rebalancing's migration traffic.

#include <iostream>

#include "bench_common.h"
#include "sim/simulator.h"
#include "solver/registry.h"

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::bench;
  using namespace lrb::sim;
  if (!parse_bench_flags(argc, argv)) return 2;

  std::cout << "E11: web-farm simulation (300 sites, 12 servers, 300 steps, "
               "5 seeds per row)\n\n";

  SimOptions base;
  base.workload.num_sites = smoke_cap<std::size_t>(300, 60);
  base.workload.max_initial_load = 1500;
  base.workload.flash_prob = 0.003;
  base.num_servers = 12;
  base.steps = smoke_cap(300, 40);
  base.rebalance_every = 5;

  Table table({"policy", "k", "mean imb", "p90 imb", "moves/round",
               "GB moved"});
  for (const auto& backend : solver::all_backends()) {
    if (backend.costed) continue;  // the byte-budgeted rows follow
    // k is irrelevant to the identity and to a full reassignment.
    const bool k_irrelevant =
        backend.id == solver::BackendId::kNone || !backend.respects_k;
    for (std::int64_t k : {4, 12, 36}) {
      if (k_irrelevant && k != 4) continue;
      std::vector<double> imbalances, p90s, moves, bytes;
      for (std::uint64_t seed = 1; seed <= smoke_cap<std::uint64_t>(5, 1);
           ++seed) {
        auto options = base;
        options.move_budget = k;
        options.seed = seed;
        Simulator simulator(options, [&](const Instance& inst,
                                         std::int64_t budget) {
          return solver::solve_serial(backend.id, inst, budget);
        });
        const auto result = simulator.run();
        imbalances.push_back(result.imbalance.mean);
        p90s.push_back(result.imbalance.p90);
        const double rounds =
            static_cast<double>(base.steps) /
            static_cast<double>(base.rebalance_every);
        moves.push_back(static_cast<double>(result.total_moves) / rounds);
        bytes.push_back(static_cast<double>(result.total_bytes) / 1e6);
      }
      table.row()
          .add(backend.name)
          .add(k_irrelevant ? "-" : std::to_string(k))
          .add(summarize(imbalances).mean, 4)
          .add(summarize(p90s).mean, 4)
          .add(summarize(moves).mean, 4)
          .add(summarize(bytes).mean, 4);
    }
  }
  // Byte-budgeted policies (§3.2 in production terms: cap migration traffic
  // per round rather than the migration count).
  for (Cost bytes : {Cost{2000}, Cost{10000}}) {
    std::vector<double> imbalances, p90s, moves, total_bytes;
    for (std::uint64_t seed = 1; seed <= smoke_cap<std::uint64_t>(5, 1);
         ++seed) {
      auto options = base;
      options.byte_costs = true;
      options.seed = seed;
      const solver::SolverSpec spec(solver::BackendId::kCostPartition,
                                    {.budget = bytes});
      Simulator simulator(options, [&](const Instance& inst, std::int64_t k) {
        return solver::solve_serial(spec, inst, k);
      });
      const auto result = simulator.run();
      imbalances.push_back(result.imbalance.mean);
      p90s.push_back(result.imbalance.p90);
      const double rounds = static_cast<double>(base.steps) /
                            static_cast<double>(base.rebalance_every);
      moves.push_back(static_cast<double>(result.total_moves) / rounds);
      total_bytes.push_back(static_cast<double>(result.total_bytes) / 1e6);
    }
    table.row()
        .add("cost-partition")
        .add(std::to_string(bytes) + "B")
        .add(summarize(imbalances).mean, 4)
        .add(summarize(p90s).mean, 4)
        .add(summarize(moves).mean, 4)
        .add(summarize(total_bytes).mean, 4);
  }
  emit_table(table, "e11_sim");
  std::cout << "\nExpected shape: 'none' drifts to the worst imbalance; "
               "bounded-k policies close most of the gap to 'lpt' while "
               "migrating orders of magnitude less; larger k helps with "
               "diminishing returns.\n";
  return 0;
}
