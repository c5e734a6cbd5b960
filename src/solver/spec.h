// SolverSpec: the typed solver selection every layer passes around instead
// of the old loose (Algo, ptas_budget, ptas_eps) triple. A spec is a stable
// backend id plus a small, bounded parameter bag; which knobs a backend
// actually consumes is declared by its registry descriptor (registry.h),
// and cache-key encoding folds ignored knobs to their defaults so
// equivalent requests share one cache entry.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.h"

namespace lrb::solver {

/// Registered solver backends. The enumerator value IS the stable wire id
/// (docs/solvers.md): the first four match the byte values the retired
/// engine::Algo enum put on the wire, so legacy frames decode unchanged.
/// New backends append new values; ids are never reused or renumbered.
enum class BackendId : std::uint8_t {
  kGreedy = 0,       ///< paper §2 GREEDY (2 - 1/m under k moves)
  kMPartition = 1,   ///< paper §3.1 M-PARTITION (1.5-approx under k moves)
  kBestOf = 2,       ///< best of GREEDY and M-PARTITION (PARTITION wins ties)
  kPtas = 3,         ///< paper §4 costed PTAS (budget + eps)
  kLpt = 4,          ///< LPT from scratch (4/3 - 1/(3m); ignores k)
  kLocalSearch = 5,  ///< M-PARTITION + peak-lowering local search under k
  kNone = 6,         ///< identity: moves nothing (the do-nothing baseline)
  kCostPartition = 7,  ///< paper §3.2 cost-PARTITION (relocation budget B)
};

inline constexpr std::size_t kNumBackends = 8;

/// The bounded parameter bag. Every backend sees the same bag; descriptors
/// declare which knobs are consumed (capability flags `budgeted` /
/// `uses_eps`), and normalized_params() folds the rest to these defaults.
struct SolverParams {
  Cost budget = kInfCost;  ///< relocation-cost budget B; kInfCost = unbounded
  double eps = 1.0;        ///< approximation target (1 + eps)

  friend bool operator==(const SolverParams&, const SolverParams&) = default;
};

/// A complete solver selection: which backend, with which parameters.
/// Implicitly constructible from a bare BackendId (default parameters) so
/// call sites that only pick an algorithm stay terse.
struct SolverSpec {
  SolverSpec() = default;
  /*implicit*/ SolverSpec(BackendId b, SolverParams p = {})
      : backend(b), params(p) {}

  BackendId backend = BackendId::kBestOf;
  SolverParams params;

  friend bool operator==(const SolverSpec&, const SolverSpec&) = default;
};

}  // namespace lrb::solver
