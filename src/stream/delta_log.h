// Plain-text serialization of streaming-session inputs, so session repros
// can be checked in, diffed, and replayed (tests/corpus/*.lrbd), plus the
// converter from stream/trace event streams into delta logs.
//
// Format (whitespace-separated, '#' comments allowed):
//
//   lrb-delta-log 1
//   trigger <backend> <move_budget> <move_frac> <imbalance_ratio>
//           <delta_count> <budget|inf> <eps>             (one line)
//   (<backend> is a solver-registry name; aliases are accepted on read,
//    the canonical name is always written — docs/solvers.md)
//   lrb-instance 1                     # embedded core/io instance section
//   procs <m>
//   jobs <n>
//   <size> <move_cost> <initial_proc>  # one line per job
//   deltas <count>
//   arrive <job_id> <size> <move_cost> <proc|auto>
//   depart <job_id>
//   update <job_id> <size>
//   proc-add <proc_id>
//   proc-remove <proc_id>
//   proc-drain <proc_id>
//   replan
//
// A delta log is the complete input of stream::replay_serial_reference:
// one file = one deterministic session transcript.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "stream/session.h"
#include "stream/trace.h"

namespace lrb::stream {

inline constexpr char kDeltaLogSchema[] = "lrb-delta-log 1";

struct DeltaLog {
  Instance initial;
  TriggerConfig trigger;
  std::vector<Delta> deltas;
};

void write_delta_log(std::ostream& os, const DeltaLog& log);
[[nodiscard]] std::string delta_log_to_string(const DeltaLog& log);

/// Parses a delta log; returns nullopt (and sets *error if non-null) on
/// malformed input. Structural only — deltas referencing unknown ids parse
/// fine and are rejected (deterministically) at replay time.
[[nodiscard]] std::optional<DeltaLog> read_delta_log(
    std::istream& is, std::string* error = nullptr);
[[nodiscard]] std::optional<DeltaLog> delta_log_from_string(
    const std::string& text, std::string* error = nullptr);

/// Converts an online trace into a delta log over `initial`: arrivals
/// become kJobArrive deltas with auto-placement and stable job ids
/// `initial.num_jobs() + arrival_index`; departures become kJobDepart of
/// the same ids. The trigger config rides along unchanged.
[[nodiscard]] DeltaLog delta_log_from_trace(
    const Instance& initial, const std::vector<Event>& events,
    const TriggerConfig& trigger);

}  // namespace lrb::stream
