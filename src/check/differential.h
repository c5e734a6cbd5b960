// Differential testing harness: run every registry backend without a cost
// budget on one instance, certify every result against the guarantee its
// descriptor declares (check/certify), and - on instances small enough for
// the exact solvers - cross-check the approximation ratios and the exact
// solvers against each other:
//
//   * every backend passes its a-priori certificate;
//   * nothing beats the branch-and-bound optimum (or its proven ratio
//     against it): GREEDY within (2 - 1/m), M-PARTITION within 1.5 with an
//     accepted threshold <= OPT, the PTAS within (1 + eps) at cost <= B,
//     cost-PARTITION within 1.5 (1 + eps)(1 + alpha), Shmoys-Tardos within 2;
//   * the independent exact solvers agree: branch-and-bound vs the
//     equal-size polynomial algorithm vs the m = 2 subset-sum DP vs
//     minimize_moves_exact at the optimal makespan.
//
// The fuzz driver (tools/lrb_fuzz) calls this in a loop; the shrinker
// (check/shrink) re-runs it to decide whether a candidate still fails.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/certify.h"
#include "core/instance.h"
#include "solver/spec.h"

namespace lrb {

/// An extra algorithm to include in the differential run (e.g. a test-only
/// mutant), held to the guarantee of the backend it claims to implement.
struct CheckedRebalancer {
  std::string name;
  std::function<RebalanceResult(const Instance&, std::int64_t k)> run;
  solver::BackendId claims = solver::BackendId::kGreedy;
};

struct DifferentialOptions {
  std::int64_t k = 4;       ///< move budget for the unit-cost backends
  Cost budget = kInfCost;   ///< budget for the cost algorithms; kInfCost
                            ///< skips them entirely
  /// Known optimal makespan under k (e.g. from a tight family); 0 = unknown.
  /// When set, ratio checks run against it even without the exact solver.
  Size known_opt = 0;
  std::size_t exact_max_jobs = 12;  ///< run exact solvers up to this n
  std::uint64_t exact_node_limit = 4'000'000;
  double ptas_eps = 1.0;            ///< eps for the PTAS (small tier only)
  bool run_cost_algorithms = true;  ///< cost-partition / PTAS / ST / greedy
  std::vector<CheckedRebalancer> extra;  ///< e.g. fuzz mutants
};

struct AlgorithmFinding {
  std::string algorithm;
  RebalanceResult result;
  SolutionCertificate certificate;
};

struct DifferentialReport {
  std::vector<AlgorithmFinding> findings;
  bool exact_available = false;  ///< B&B proved the k-move optimum
  Size exact_makespan = 0;       ///< OPT(k) when exact_available

  [[nodiscard]] bool ok() const;
  /// Every (algorithm, violation-kind) pair present in the report; the fuzz
  /// shrinker uses these as the failure signature.
  [[nodiscard]] std::vector<std::pair<std::string, ViolationKind>> signatures()
      const;
  /// Multi-line human-readable summary of all violations ("" when ok()).
  [[nodiscard]] std::string to_string() const;
};

/// Runs the full differential check on one instance.
[[nodiscard]] DifferentialReport differential_check(
    const Instance& instance, const DifferentialOptions& options = {});

}  // namespace lrb
