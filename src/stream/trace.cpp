#include "stream/trace.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/rng.h"

namespace lrb::stream {

std::vector<Event> random_trace(const TraceOptions& options,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> trace;
  trace.reserve(options.num_events);
  // Alive set: arrival indices + sizes (for the biased victim choice).
  std::vector<std::size_t> alive;
  std::vector<Size> alive_size;
  std::size_t arrivals = 0;

  for (std::size_t e = 0; e < options.num_events; ++e) {
    const bool depart =
        !alive.empty() && rng.bernoulli(options.departure_fraction);
    if (depart) {
      std::size_t pick;
      if (options.bias_large_departures && rng.bernoulli(0.5)) {
        pick = static_cast<std::size_t>(
            std::max_element(alive_size.begin(), alive_size.end()) -
            alive_size.begin());
      } else {
        pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<Size>(alive.size()) - 1));
      }
      Event event;
      event.kind = EventKind::kDepart;
      event.arrival_index = alive[pick];
      trace.push_back(event);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      alive_size.erase(alive_size.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      Event event;
      event.kind = EventKind::kArrive;
      event.size = rng.uniform_int(options.min_size, options.max_size);
      event.move_cost = rng.uniform_int(options.min_cost, options.max_cost);
      event.arrival_index = arrivals;
      trace.push_back(event);
      alive.push_back(arrivals);
      alive_size.push_back(event.size);
      ++arrivals;
    }
  }
  assert(trace_is_well_formed(trace));
  return trace;
}

bool trace_is_well_formed(const std::vector<Event>& trace) {
  std::vector<char> alive;  // indexed by arrival order
  for (const auto& event : trace) {
    if (event.kind == EventKind::kArrive) {
      if (event.arrival_index != alive.size()) return false;
      alive.push_back(1);
    } else {
      if (event.arrival_index >= alive.size()) return false;
      if (alive[event.arrival_index] == 0) return false;
      alive[event.arrival_index] = 0;
    }
  }
  return true;
}

}  // namespace lrb::stream
