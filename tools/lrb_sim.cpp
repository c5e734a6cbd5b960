// lrb_simulate: run the web-farm rebalancing simulator from the command line and
// emit the per-step metric series (CSV on stdout, summary on stderr).
//
//   lrb_simulate --policy m-partition --sites 300 --servers 12 --steps 400
//                --every 5 --k 12 --seed 7 > series.csv
//
// Flags (defaults in parentheses):
//   --policy NAME (m-partition)  any solver-registry backend or alias
//   --byte-budget B        use cost-partition with B bytes per round instead
//   --sites N (300)        --servers M (12)     --steps T (400)
//   --every R (5)          --k K (12)           --seed S (1)
//   --flash-prob P (0.003) --drain-prob P (0)   --churn-prob P (0)
//   --migrations-per-step G (0 = instantaneous)

#include <iostream>
#include <string>

#include "sim/simulator.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/table.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_simulate: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::sim;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_simulate");
    return 0;
  }

  SimOptions options;
  options.workload.num_sites =
      static_cast<std::size_t>(flags.get_int("sites", 300));
  options.workload.flash_prob = flags.get_double("flash-prob", 0.003);
  options.workload.churn_prob = flags.get_double("churn-prob", 0.0);
  options.num_servers = static_cast<ProcId>(flags.get_int("servers", 12));
  options.steps = static_cast<std::size_t>(flags.get_int("steps", 400));
  options.rebalance_every =
      static_cast<std::size_t>(flags.get_int("every", 5));
  options.move_budget = flags.get_int("k", 12);
  options.drain_prob = flags.get_double("drain-prob", 0.0);
  options.migrations_per_step =
      static_cast<std::size_t>(flags.get_int("migrations-per-step", 0));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (options.workload.num_sites == 0 || options.num_servers == 0 ||
      options.steps == 0) {
    return fail("--sites, --servers and --steps must be positive");
  }

  solver::SolverSpec spec;
  std::string policy_name = flags.get_or("policy", "m-partition");
  if (flags.has("byte-budget")) {
    options.byte_costs = true;
    const Cost bytes = flags.get_int("byte-budget", 5000);
    spec = solver::SolverSpec(solver::BackendId::kCostPartition,
                              {.budget = bytes});
    policy_name = "cost-partition(" + std::to_string(bytes) + "B)";
  } else if (!solver::parse_backend(policy_name, &spec.backend)) {
    return fail("unknown --policy '" + policy_name + "'");
  }
  if (const auto problem = solver::validate_spec(spec)) return fail(*problem);
  const Policy policy = [spec](const Instance& instance, std::int64_t k) {
    return solver::solve_serial(spec, instance, k);
  };

  Simulator simulator(options, policy);
  const auto result = simulator.run();

  Table series({"step", "makespan", "ideal", "imbalance", "moves",
                "forced_moves", "bytes_moved", "flashes"});
  for (const auto& step : result.series) {
    series.row()
        .add(static_cast<std::uint64_t>(step.step))
        .add(step.makespan)
        .add(step.ideal)
        .add(step.imbalance, 6)
        .add(step.moves)
        .add(step.forced_moves)
        .add(step.bytes_moved)
        .add(static_cast<std::uint64_t>(step.flashes));
  }
  series.print_csv(std::cout);

  std::cerr << "policy:          " << policy_name << "\n"
            << "mean imbalance:  " << result.mean_imbalance << "\n"
            << "p90 imbalance:   " << result.imbalance.p90 << "\n"
            << "max imbalance:   " << result.imbalance.max << "\n"
            << "policy moves:    " << result.total_moves << "\n"
            << "forced moves:    " << result.total_forced_moves << "\n"
            << "bytes moved:     " << result.total_bytes << "\n";
  return 0;
}
