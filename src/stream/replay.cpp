#include "stream/replay.h"

#include "engine/batch_solver.h"

namespace lrb::stream {

SolveFn serial_reference_solver(bool cached) {
  if (cached) {
    return [](const Instance& instance, std::int64_t k,
              const solver::SolverSpec& spec) {
      return engine::cached_serial_reference(spec, instance, k);
    };
  }
  return [](const Instance& instance, std::int64_t k,
            const solver::SolverSpec& spec) {
    return engine::solve_serial_reference(spec, instance, k);
  };
}

ReplayResult replay_serial_reference(const Instance& initial,
                                     const TriggerConfig& config,
                                     std::span<const Delta> deltas,
                                     const ReplayOptions& options) {
  // Every ack value is recomputed from scratch, never read from the state
  // the session maintains, so a server's maintained values are checked
  // against an independent computation.
  ReplayResult result;
  auto session = ClusterSession::open(initial, config, &result.error);
  if (!session) return result;
  const SolveFn solve = serial_reference_solver(options.cached);
  result.open_makespan = session->recomputed_makespan();
  result.open_lower_bound = session->recomputed_lower_bound();
  result.open_digest = session->recomputed_digest();
  result.steps.reserve(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const std::uint64_t seq = i + 1;
    StepResult step = session->step(deltas[i], seq, solve);
    ReplayStep replayed;
    replayed.seq = seq;
    replayed.applied = step.applied;
    replayed.error = std::move(step.error);
    replayed.plans = std::move(step.plans);
    replayed.makespan = session->recomputed_makespan();
    replayed.lower_bound = session->recomputed_lower_bound();
    replayed.digest = session->recomputed_digest();
    result.steps.push_back(std::move(replayed));
  }
  result.final_stats = session->recomputed_stats();
  result.ok = true;
  return result;
}

}  // namespace lrb::stream
