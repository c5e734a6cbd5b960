// Experiment E16: the dynamic setting from the paper's abstract - an online
// schedule erodes as jobs depart; periodic bounded rebalancing restores it.
// Measures the tracking ratio makespan / offline-bound along arrival +
// departure traces for a grid of (rebalance interval, move budget k),
// including the two degenerate corners: never rebalance (pure Graham) and
// arrivals-only (where Graham's 2 - 1/m guarantee applies unconditionally).

#include <iostream>

#include "bench_common.h"
#include "online/scheduler.h"
#include "online/trace.h"
#include "solver/registry.h"
#include "util/rng.h"

namespace {

struct RunMetrics {
  double mean_ratio = 0;
  double max_ratio = 0;
  std::int64_t total_moves = 0;
};

RunMetrics run_trace(const std::vector<lrb::online::Event>& trace,
                     lrb::ProcId m, std::size_t interval, std::int64_t k,
                     bool frugal) {
  using namespace lrb;
  using namespace lrb::online;
  OnlineScheduler scheduler(m);
  std::vector<std::size_t> handles;
  RunMetrics metrics;
  double sum = 0;
  std::size_t samples = 0;
  std::size_t events = 0;
  for (const auto& event : trace) {
    if (event.kind == EventKind::kArrive) {
      handles.push_back(scheduler.on_arrive(event.size, event.move_cost));
    } else {
      scheduler.on_depart(handles[event.arrival_index]);
    }
    ++events;
    if (interval > 0 && events % interval == 0 && scheduler.num_alive() > 0) {
      const auto result = scheduler.rebalance(
          [frugal](const Instance& inst, std::int64_t budget) {
            // M-PARTITION stops at its 1.5 guarantee (frugal); best-of also
            // runs GREEDY, which spends the budget chasing the minimum.
            return solver::solve_serial(frugal ? solver::BackendId::kMPartition
                                               : solver::BackendId::kBestOf,
                                        inst, budget);
          },
          k);
      metrics.total_moves += result.moves;
    }
    if (scheduler.num_alive() > 0) {
      const double ratio = static_cast<double>(scheduler.makespan()) /
                           static_cast<double>(scheduler.offline_bound());
      sum += ratio;
      metrics.max_ratio = std::max(metrics.max_ratio, ratio);
      ++samples;
    }
  }
  metrics.mean_ratio = samples > 0 ? sum / static_cast<double>(samples) : 1.0;
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::bench;
  using namespace lrb::online;
  if (!parse_bench_flags(argc, argv)) return 2;

  std::cout << "E16: online arrivals/departures with periodic bounded "
               "rebalancing (m = 6, 800 events, 8 seeds per row)\n\n";

  TraceOptions churny;
  churny.num_events = smoke_cap<std::size_t>(800, 120);
  churny.departure_fraction = 0.45;
  churny.bias_large_departures = true;

  TraceOptions arrivals_only = churny;
  arrivals_only.departure_fraction = 0.0;
  arrivals_only.bias_large_departures = false;

  struct Config {
    const char* name;
    const TraceOptions* trace;
    std::size_t interval;  // 0 = never rebalance
    std::int64_t k;
    bool frugal;
  };
  const Config configs[] = {
      {"arrivals only, no rebalance", &arrivals_only, 0, 0, false},
      {"churny, no rebalance", &churny, 0, 0, false},
      {"churny, every 50, k=8, m-partition", &churny, 50, 8, true},
      {"churny, every 100 events k=2", &churny, 100, 2, false},
      {"churny, every 50 events k=2", &churny, 50, 2, false},
      {"churny, every 50 events k=8", &churny, 50, 8, false},
      {"churny, every 10 events k=8", &churny, 10, 8, false},
  };

  // Build-up / drain-down traces: 300 arrivals, then 260 departures with no
  // arrivals to backfill the holes - the regime where rebalancing is the
  // only healing mechanism.
  auto drain_down_trace = [&](std::uint64_t seed) {
    TraceOptions build = arrivals_only;
    build.num_events = 300;
    auto trace = random_trace(build, seed);
    std::vector<std::size_t> order(300);
    for (std::size_t i = 0; i < 300; ++i) order[i] = i;
    Rng rng(seed ^ 0xabcdefULL);
    shuffle(std::span<std::size_t>(order), rng);
    for (std::size_t i = 0; i < 260; ++i) {
      Event event;
      event.kind = EventKind::kDepart;
      event.arrival_index = order[i];
      trace.push_back(event);
    }
    return trace;
  };

  Table table({"configuration", "mean ratio", "max ratio", "moves/1k events"});
  for (const auto& config : configs) {
    std::vector<double> means, maxes, moves;
    for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(8, 2);
         ++seed) {
      const auto trace = random_trace(*config.trace, seed);
      const auto metrics =
          run_trace(trace, 6, config.interval, config.k, config.frugal);
      means.push_back(metrics.mean_ratio);
      maxes.push_back(metrics.max_ratio);
      moves.push_back(static_cast<double>(metrics.total_moves) * 1000.0 /
                      static_cast<double>(config.trace->num_events));
    }
    table.row()
        .add(config.name)
        .add(summarize(means).mean, 4)
        .add(summarize(maxes).mean, 4)
        .add(summarize(moves).mean, 4);
  }
  // Drain-down rows.
  struct DrainConfig {
    const char* name;
    std::size_t interval;
    std::int64_t k;
  };
  const DrainConfig drain_configs[] = {
      {"drain-down, no rebalance", 0, 0},
      {"drain-down, every 25 events k=4", 25, 4},
      {"drain-down, every 10 events k=8", 10, 8},
  };
  for (const auto& config : drain_configs) {
    std::vector<double> means, maxes, moves;
    for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(8, 2);
         ++seed) {
      const auto trace = drain_down_trace(seed);
      const auto metrics = run_trace(trace, 6, config.interval, config.k, false);
      means.push_back(metrics.mean_ratio);
      maxes.push_back(metrics.max_ratio);
      moves.push_back(static_cast<double>(metrics.total_moves) * 1000.0 /
                      static_cast<double>(trace.size()));
    }
    table.row()
        .add(config.name)
        .add(summarize(means).mean, 4)
        .add(summarize(maxes).mean, 4)
        .add(summarize(moves).mean, 4);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: arrivals-only stays within Graham's "
               "2 - 1/m; departures push the unmanaged run's max ratio well "
               "above it; a handful of moves per hundred events pulls both "
               "mean and max back down, with diminishing returns in k and "
               "frequency - the dynamic story that motivates the paper.\n";
  return 0;
}
