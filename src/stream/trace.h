// Online job traces: interleaved arrivals and departures, the dynamic
// setting the paper's abstract opens with ("in most real world scenarios
// the load is a dynamic measure, the initial assignment may not remain
// optimal with time"). delta_log_from_trace (stream/delta_log.h) turns a
// trace into session deltas: arrivals are auto-placed on the least-loaded
// processor, and departures punch holes that erode any placement - which
// is exactly when bounded rebalancing earns its keep.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace lrb::stream {

enum class EventKind { kArrive, kDepart };

struct Event {
  EventKind kind = EventKind::kArrive;
  /// For arrivals: the job's size and relocation cost.
  Size size = 0;
  Cost move_cost = 1;
  /// For departures: the index (into the trace's arrival order) of the job
  /// that leaves. Guaranteed to reference a job that is alive at that point.
  std::size_t arrival_index = 0;
};

struct TraceOptions {
  std::size_t num_events = 1000;
  /// Probability that an event is a departure (when any job is alive).
  double departure_fraction = 0.4;
  Size min_size = 1;
  Size max_size = 100;
  Cost min_cost = 1;
  Cost max_cost = 1;
  /// Departures pick a random alive job; with bias_large_departures the
  /// victim is the LARGEST alive job half the time (adversarial-ish: the
  /// holes left behind are big).
  bool bias_large_departures = false;
};

/// Generates a well-formed trace (departures always reference alive jobs).
/// Deterministic in (options, seed).
[[nodiscard]] std::vector<Event> random_trace(const TraceOptions& options,
                                              std::uint64_t seed);

/// Validates departure references (every departure names a job that arrived
/// earlier and has not departed yet).
[[nodiscard]] bool trace_is_well_formed(const std::vector<Event>& trace);

}  // namespace lrb::stream
