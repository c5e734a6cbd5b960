// The dynamic setting end to end: an elastic cluster where jobs arrive and
// depart online. Arrivals are placed greedily (Graham); every 40 events the
// operator spends a small move budget on rebalancing. The drain-down phase
// at the end - departures with no arrivals to backfill - is where the
// bounded rebalancing earns its keep.
//
//   $ ./examples/elastic_cluster

#include <algorithm>
#include <iostream>

#include "online/scheduler.h"
#include "online/trace.h"
#include "solver/registry.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace lrb;
  using namespace lrb::online;

  const ProcId servers = 8;
  const std::int64_t k = 6;

  // Phase 1: 400 mixed events; phase 2: drain 200 of the survivors.
  TraceOptions options;
  options.num_events = 400;
  options.departure_fraction = 0.35;
  options.min_size = 5;
  options.max_size = 150;
  auto trace = random_trace(options, 2003);
  {
    std::vector<std::size_t> alive;
    std::vector<char> alive_flag;
    for (const auto& event : trace) {
      if (event.kind == EventKind::kArrive) {
        alive.push_back(event.arrival_index);
        alive_flag.push_back(1);
      } else {
        alive_flag[event.arrival_index] = 0;
      }
    }
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < alive_flag.size(); ++i) {
      if (alive_flag[i] != 0) survivors.push_back(i);
    }
    Rng rng(77);
    shuffle(std::span<std::size_t>(survivors), rng);
    const std::size_t drain = std::min<std::size_t>(200, survivors.size());
    for (std::size_t i = 0; i < drain; ++i) {
      Event event;
      event.kind = EventKind::kDepart;
      event.arrival_index = survivors[i];
      trace.push_back(event);
    }
  }

  OnlineScheduler scheduler(servers);
  std::vector<std::size_t> handles;
  std::size_t events = 0;
  std::int64_t total_moves = 0;

  std::cout << "Elastic cluster: " << servers << " servers, " << trace.size()
            << " events, rebalance every 40 events with k = " << k << "\n\n";
  Table table({"event", "alive", "makespan", "offline bound", "ratio",
               "moves so far"});
  for (const auto& event : trace) {
    if (event.kind == EventKind::kArrive) {
      handles.push_back(scheduler.on_arrive(event.size, event.move_cost));
    } else {
      scheduler.on_depart(handles[event.arrival_index]);
    }
    ++events;
    if (events % 40 == 0 && scheduler.num_alive() > 0) {
      total_moves += scheduler
                         .rebalance(
                             [](const Instance& inst, std::int64_t budget) {
                               return solver::solve_serial(
                                   solver::BackendId::kBestOf, inst, budget);
                             },
                             k)
                         .moves;
    }
    if (events % 60 == 0 && scheduler.num_alive() > 0) {
      table.row()
          .add(static_cast<std::uint64_t>(events))
          .add(static_cast<std::uint64_t>(scheduler.num_alive()))
          .add(scheduler.makespan())
          .add(scheduler.offline_bound())
          .add(static_cast<double>(scheduler.makespan()) /
                   static_cast<double>(scheduler.offline_bound()),
               3)
          .add(total_moves);
    }
  }
  table.print(std::cout);
  std::cout << "\nThe ratio column stays near 1 through the drain-down: a "
               "handful of\nmoves per round absorbs the holes departures "
               "leave behind.\n";
  return 0;
}
