// lrb_sweep: evaluate every solver-registry backend without a cost budget
// across a sweep of move budgets on one instance, in parallel, and print a
// comparison table.
//
//   lrb_sweep instance.lrb --k 1,2,4,8,16,32 [--csv] [--threads N]
//
// Each (algorithm, k) cell runs as an independent task on the thread pool;
// results are deterministic regardless of the thread count.

#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_sweep: " << message << "\n";
  return 1;
}

/// The comma-separated move budgets, or nullopt if one is not a count.
std::optional<std::vector<std::int64_t>> parse_budgets(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::istringstream iss(csv);
  std::string token;
  while (std::getline(iss, token, ',')) {
    if (token.empty()) continue;
    const auto k = lrb::parse_count(token);
    if (!k) return std::nullopt;
    out.push_back(*k);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_sweep");
    return 0;
  }
  if (flags.positional().size() != 1) {
    return fail("usage: lrb_sweep <instance.lrb> [--k 1,2,4,...] [--csv] "
                "[--threads N]");
  }
  std::ifstream in(flags.positional()[0]);
  if (!in) return fail("cannot open " + flags.positional()[0]);
  std::string error;
  const auto instance = read_instance(in, &error);
  if (!instance) return fail("parse error: " + error);

  const auto budgets = parse_budgets(flags.get_or("k", "1,2,4,8,16,32"));
  if (!budgets) return fail("--k wants move budgets >= 0, like 1,2,4");
  if (budgets->empty()) return fail("--k list is empty");
  const auto threads = flags.get_count("threads", 0);
  if (!threads) return fail("--threads must be a whole number >= 0");

  struct Cell {
    solver::BackendId backend;
    std::int64_t k = 0;
    RebalanceResult result;
    double millis = 0;
  };
  std::vector<Cell> cells;
  for (const auto& backend : solver::all_backends()) {
    if (backend.costed) continue;  // no cost budget on this sweep
    for (std::int64_t k : *budgets) {
      cells.push_back({backend.id, k, {}, 0});
    }
  }

  ThreadPool pool(static_cast<std::size_t>(*threads));
  parallel_for(pool, 0, cells.size(), [&](std::size_t i) {
    Timer timer;
    cells[i].result = solver::solve_serial(cells[i].backend, *instance,
                                           cells[i].k);
    cells[i].millis = timer.millis();
  });

  std::cerr << "instance: " << instance->num_jobs() << " jobs on "
            << instance->num_procs << " processors; initial makespan "
            << instance->initial_makespan() << "\n";
  Table table({"algorithm", "k", "makespan", "moves", "cost", "vs LB", "ms"});
  for (const auto& cell : cells) {
    const Size lb = combined_lower_bound(*instance, cell.k);
    table.row()
        .add(solver::backend_name(cell.backend))
        .add(cell.k)
        .add(cell.result.makespan)
        .add(cell.result.moves)
        .add(cell.result.cost)
        .add(lb > 0 ? static_cast<double>(cell.result.makespan) /
                          static_cast<double>(lb)
                    : 1.0,
             4)
        .add(cell.millis, 3);
  }
  if (flags.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
