// lrb_solve: run a rebalancing algorithm on an instance file.
//
//   lrb_solve instance.lrb --algo m-partition --k 10
//   lrb_solve instance.lrb --algo cost-partition --budget 500
//   lrb_solve instance.lrb --algo exact --k 4 --out assignment.lrb
//   lrb_solve instance.lrb --algo greedy --k 6 --plan      # print migrations
//
// Reads the instance from the positional path ("-" = stdin). Prints a
// before/after report to stderr and the assignment to --out (or stdout).
//
// Algorithms: every solver-registry backend by name or alias (none | greedy |
//             m-partition | best-of | ptas | lpt | local-search |
//             cost-partition; lpt-full and mp-ls still parse), plus
//             cost-greedy | shmoys-tardos | exact.
// Budgets: --k for unit-cost algorithms (default n), --budget for cost-aware
// ones (default: the k value), --eps for the PTAS (default 0.5). Knobs the
// chosen backend consumes must be in range (budget >= 0, eps > 0).

#include <fstream>
#include <iostream>
#include <string>

#include "algo/cost_greedy.h"
#include "algo/exact.h"
#include "core/analysis.h"
#include "core/plan.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "lp/gap.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/timer.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_solve: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_solve");
    return 0;
  }
  if (flags.positional().size() != 1) {
    return fail("usage: lrb_solve <instance.lrb|-> --algo NAME [--k K] "
                "[--budget B] [--eps E] [--out FILE]");
  }

  std::optional<Instance> instance;
  std::string error;
  if (flags.positional()[0] == "-") {
    instance = read_instance(std::cin, &error);
  } else {
    std::ifstream in(flags.positional()[0]);
    if (!in) return fail("cannot open " + flags.positional()[0]);
    instance = read_instance(in, &error);
  }
  if (!instance) return fail("parse error: " + error);

  const auto n = static_cast<std::int64_t>(instance->num_jobs());
  const std::int64_t k = flags.get_int("k", n);
  const Cost budget = flags.get_int("budget", k);
  const double eps = flags.get_double("eps", 0.5);
  const std::string algo = flags.get_or("algo", "m-partition");

  Timer timer;
  RebalanceResult result;
  solver::SolverSpec spec;
  if (solver::parse_backend(algo, &spec.backend)) {
    spec.params = {.budget = budget, .eps = eps};
    if (const auto problem = solver::validate_spec(
            {spec.backend, solver::normalized_params(spec)})) {
      return fail(*problem);
    }
    bool gave_up = false;
    result = solver::solve(spec, *instance, k, {.gave_up = &gave_up});
    if (gave_up) {
      return fail("PTAS state limit exceeded; raise --eps or shrink the "
                  "instance");
    }
  } else if (algo == "cost-greedy") {
    result = cost_greedy_rebalance(*instance, budget);
  } else if (algo == "shmoys-tardos") {
    result = st_rebalance(*instance, budget);
  } else if (algo == "exact") {
    ExactOptions options;
    options.max_moves = k;
    options.budget = flags.has("budget") ? budget : kInfCost;
    const auto exact = exact_rebalance(*instance, options);
    if (!exact.proven_optimal) {
      std::cerr << "lrb_solve: warning: node limit hit; result may be "
                   "suboptimal\n";
    }
    result = exact.best;
  } else {
    return fail("unknown --algo '" + algo + "'");
  }
  const double elapsed_ms = timer.millis();

  const auto before = analyze_initial(*instance);
  const auto after = analyze(*instance, result.assignment);
  std::cerr << "algorithm:    " << algo << "\n"
            << "jobs/procs:   " << instance->num_jobs() << " / "
            << instance->num_procs << "\n"
            << "makespan:     " << before.makespan << " -> " << after.makespan
            << "\n"
            << "imbalance:    " << before.imbalance << " -> "
            << after.imbalance << "\n"
            << "moves:        " << result.moves << " (k = " << k << ")\n"
            << "cost:         " << result.cost << " (budget = " << budget
            << ")\n"
            << "lower bound:  " << combined_lower_bound(*instance, k) << "\n"
            << "time:         " << elapsed_ms << " ms\n";

  if (flags.has("plan")) {
    // Print the executable migration plan (monotone order) to stderr.
    const auto plan = make_plan(*instance, result.assignment);
    std::cerr << "plan:         " << plan.steps.size()
              << " migrations, peak makespan " << plan.peak_makespan << "\n";
    for (const auto& mig : plan.steps) {
      std::cerr << "  move job " << mig.job << " (size " << mig.size
                << ", cost " << mig.cost << "): P" << mig.from << " -> P"
                << mig.to << "\n";
    }
  }

  if (const auto out_path = flags.get("out")) {
    std::ofstream out(*out_path);
    if (!out) return fail("cannot write " + *out_path);
    write_assignment(out, result.assignment);
  } else {
    write_assignment(std::cout, result.assignment);
  }
  return 0;
}
