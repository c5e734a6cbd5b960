#include "check/differential.h"

#include <optional>
#include <sstream>
#include <utility>

#include "algo/cost_greedy.h"
#include "algo/exact.h"
#include "algo/move_min.h"
#include "algo/two_proc_exact.h"
#include "algo/unit_exact.h"
#include "core/lower_bounds.h"
#include "lp/gap.h"
#include "solver/registry.h"

namespace lrb {
namespace {

void add_violation(AlgorithmFinding& finding, ViolationKind kind,
                   const std::string& detail) {
  finding.certificate.violations.push_back(Violation{kind, detail});
}

/// den * makespan <= num * reference + den * additive as a violation check
/// against a certified optimum (kRatioVsExact rather than kApproxBound).
void check_ratio_vs_opt(AlgorithmFinding& finding, std::int64_t num,
                        std::int64_t den, Size opt, Size additive = 0) {
  const auto ms = finding.result.makespan;
  if (den * ms > num * opt + den * additive) {
    std::ostringstream oss;
    oss << "makespan " << ms << " > (" << num << "/" << den
        << ") * OPT = " << num << "/" << den << " * " << opt;
    if (additive != 0) oss << " + " << additive;
    add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
  }
}

/// No feasible solution may beat a certified optimum for its constraints.
void check_not_below_opt(AlgorithmFinding& finding, Size opt,
                         const char* regime) {
  if (finding.result.makespan < opt) {
    std::ostringstream oss;
    oss << "makespan " << finding.result.makespan
        << " beats the certified optimum " << opt << " (" << regime << ")";
    add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
  }
}

}  // namespace

bool DifferentialReport::ok() const {
  for (const auto& finding : findings) {
    if (!finding.certificate.ok()) return false;
  }
  return true;
}

std::vector<std::pair<std::string, ViolationKind>>
DifferentialReport::signatures() const {
  std::vector<std::pair<std::string, ViolationKind>> out;
  for (const auto& finding : findings) {
    for (const auto& violation : finding.certificate.violations) {
      std::pair<std::string, ViolationKind> sig{finding.algorithm,
                                                violation.kind};
      bool seen = false;
      for (const auto& existing : out) seen = seen || existing == sig;
      if (!seen) out.push_back(std::move(sig));
    }
  }
  return out;
}

std::string DifferentialReport::to_string() const {
  std::ostringstream oss;
  bool first = true;
  for (const auto& finding : findings) {
    for (const auto& violation : finding.certificate.violations) {
      if (!first) oss << '\n';
      first = false;
      oss << finding.algorithm << ": [" << lrb::to_string(violation.kind)
          << "] " << violation.detail;
    }
  }
  return oss.str();
}

DifferentialReport differential_check(const Instance& instance,
                                      const DifferentialOptions& options) {
  DifferentialReport report;

  if (const auto problem = validate(instance)) {
    AlgorithmFinding finding;
    finding.algorithm = "instance";
    finding.certificate.violations.push_back(
        Violation{ViolationKind::kStructure, *problem});
    report.findings.push_back(std::move(finding));
    return report;
  }

  const auto n = static_cast<std::int64_t>(instance.num_jobs());
  const auto m = static_cast<std::int64_t>(instance.num_procs);
  const std::int64_t k = options.k;
  const bool small = instance.num_jobs() <= options.exact_max_jobs;

  // Findings that claim a backend's guarantee, with the check it implies;
  // the ratio pass at the end applies them once the optima are known.
  std::vector<std::pair<std::size_t, GuaranteeCheck>> claims;
  const auto run_claimed = [&](std::string name,
                               const solver::SolverSpec& spec,
                               RebalanceResult result) {
    AlgorithmFinding finding;
    finding.algorithm = std::move(name);
    finding.result = std::move(result);
    GuaranteeCheck check = guarantee_check(spec, instance, k, finding.result);
    finding.certificate =
        certify_solution(instance, finding.result, check.apriori);
    claims.emplace_back(report.findings.size(), std::move(check));
    report.findings.push_back(std::move(finding));
  };

  // ---- every backend without a cost budget, plus the extras.
  for (const auto& backend : solver::all_backends()) {
    if (backend.costed) continue;
    run_claimed(backend.name, backend.id,
                solver::solve_serial(backend.id, instance, k));
  }
  for (const auto& extra : options.extra) {
    run_claimed(extra.name, extra.claims, extra.run(instance, k));
  }

  // ---- certified k-move optimum: branch-and-bound, or a known-OPT family.
  Size opt = 0;
  bool have_opt = false;
  if (small) {
    ExactOptions exact_options;
    exact_options.max_moves = k;
    exact_options.node_limit = options.exact_node_limit;
    const auto exact = exact_rebalance(instance, exact_options);
    if (exact.proven_optimal) {
      report.exact_available = true;
      report.exact_makespan = exact.best.makespan;
      opt = exact.best.makespan;
      have_opt = true;

      AlgorithmFinding finding;
      finding.algorithm = "exact";
      finding.result = exact.best;
      CertifyOptions certify_options;
      certify_options.max_moves = k;
      finding.certificate =
          certify_solution(instance, finding.result, certify_options);

      if (options.known_opt > 0 && options.known_opt != opt) {
        std::ostringstream oss;
        oss << "branch-and-bound optimum " << opt
            << " != the family's known optimum " << options.known_opt;
        add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
      }

      // Independent exact solvers must agree with the branch-and-bound.
      if (const auto fast = equal_size_exact_rebalance(instance, k)) {
        if (fast->makespan != opt) {
          std::ostringstream oss;
          oss << "equal-size exact got " << fast->makespan
              << " but branch-and-bound proved " << opt;
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
      }
      if (m == 2) {
        if (const auto dp = two_proc_exact_rebalance(instance, k)) {
          if (dp->makespan != opt) {
            std::ostringstream oss;
            oss << "two-processor DP got " << dp->makespan
                << " but branch-and-bound proved " << opt;
            add_violation(finding, ViolationKind::kExactDisagreement,
                          oss.str());
          }
        }
      }

      // Move minimization at the optimal makespan: a <= k-move solution at
      // makespan OPT(k) exists, so the minimum move count is <= k and no
      // smaller than its own certified lower bound.
      const auto move_min = minimize_moves_exact(
          instance, opt, /*minimize_cost=*/false, options.exact_node_limit);
      if (move_min.proven_optimal) {
        if (!move_min.feasible || move_min.best.moves > k) {
          std::ostringstream oss;
          oss << "minimize_moves_exact at L = " << opt << " reported "
              << (move_min.feasible
                      ? std::to_string(move_min.best.moves) + " moves"
                      : std::string("infeasible"))
              << " but a <= " << k << "-move solution exists";
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
        if (move_min.feasible &&
            move_min.best.moves < move_min_lower_bound(instance, opt)) {
          std::ostringstream oss;
          oss << "minimize_moves_exact found " << move_min.best.moves
              << " moves, below move_min_lower_bound "
              << move_min_lower_bound(instance, opt);
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
        if (const auto greedy_moves = move_min_greedy(instance, opt)) {
          if (move_min.feasible && greedy_moves->moves != move_min.best.moves) {
            std::ostringstream oss;
            oss << "move_min_greedy claims optimal " << greedy_moves->moves
                << " moves but minimize_moves_exact proved "
                << move_min.best.moves;
            add_violation(finding, ViolationKind::kExactDisagreement,
                          oss.str());
          }
        }
      }
      report.findings.push_back(std::move(finding));
    }
  }
  if (!have_opt && options.known_opt > 0) {
    opt = options.known_opt;
    have_opt = true;
  }

  // ---- the budgeted (arbitrary-cost) algorithms.
  Size opt_budget = 0;
  bool have_opt_budget = false;
  if (options.run_cost_algorithms && options.budget != kInfCost) {
    const Cost budget = options.budget;
    CertifyOptions budget_certify;
    budget_certify.budget = budget;

    {
      CertifyOptions greedy_certify = budget_certify;
      // cost-greedy only ever applies improving moves.
      greedy_certify.bound =
          RatioBound{1, 1, instance.initial_makespan(), 0, "initial makespan"};
      AlgorithmFinding finding;
      finding.algorithm = "cost-greedy";
      finding.result = cost_greedy_rebalance(instance, budget);
      finding.certificate =
          certify_solution(instance, finding.result, greedy_certify);
      report.findings.push_back(std::move(finding));
    }

    const solver::SolverSpec cost_partition(solver::BackendId::kCostPartition,
                                            {.budget = budget});
    run_claimed("cost-partition", cost_partition,
                solver::solve_serial(cost_partition, instance, k));
    // The LP-based baseline and the PTAS are exponential-ish in practice on
    // large or huge-size instances; exercise them on the small tier only
    // (which is also where their ratio checks have an exact optimum).
    if (small) {
      AlgorithmFinding st;
      st.algorithm = "shmoys-tardos";
      st.result = st_rebalance(instance, budget);
      st.certificate = certify_solution(instance, st.result, budget_certify);
      const std::size_t st_index = report.findings.size();
      report.findings.push_back(std::move(st));

      const solver::SolverSpec ptas(
          solver::BackendId::kPtas,
          {.budget = budget, .eps = options.ptas_eps});
      bool gave_up = false;
      auto ptas_result =
          solver::solve(ptas, instance, k, {.gave_up = &gave_up});
      if (!gave_up) run_claimed("ptas", ptas, std::move(ptas_result));

      ExactOptions exact_options;
      exact_options.budget = budget;
      exact_options.node_limit = options.exact_node_limit;
      const auto exact_budget = exact_rebalance(instance, exact_options);
      if (exact_budget.proven_optimal) {
        opt_budget = exact_budget.best.makespan;
        have_opt_budget = true;
        check_not_below_opt(report.findings[st_index], opt_budget,
                            "budget problem");
        check_ratio_vs_opt(report.findings[st_index], 2, 1, opt_budget);
      }
    }
  }

  // ---- each claimed guarantee against its certified optimum. LPT's
  // Graham bound needs the UNBOUNDED optimum, which the k-move optimum only
  // bounds from above (LPT can legitimately beat OPT(k)); prove it
  // separately.
  std::optional<Size> opt_unbounded;
  if (have_opt && small) {
    ExactOptions unbounded;
    unbounded.max_moves = n;
    unbounded.node_limit = options.exact_node_limit;
    const auto exact_full = exact_rebalance(instance, unbounded);
    if (exact_full.proven_optimal) opt_unbounded = exact_full.best.makespan;
  }
  for (const auto& [index, check] : claims) {
    AlgorithmFinding& finding = report.findings[index];
    Size reference = 0;
    const char* regime = "";
    switch (check.optimum) {
      case OptimumKind::kMoves:
        if (!have_opt) continue;
        reference = opt;
        regime = "k-move problem";
        break;
      case OptimumKind::kUnbounded:
        if (!opt_unbounded) continue;
        reference = *opt_unbounded;
        regime = "unbounded-move problem";
        break;
      case OptimumKind::kBudget:
        if (!have_opt_budget) continue;
        reference = opt_budget;
        regime = "budget problem";
        break;
    }
    check_not_below_opt(finding, reference, regime);
    if (check.num != 0) {
      check_ratio_vs_opt(finding, check.num, check.den, reference,
                         check.additive);
    }
    if (check.threshold_at_most_opt && finding.result.threshold > reference) {
      std::ostringstream oss;
      oss << "accepted threshold " << finding.result.threshold
          << " exceeds OPT = " << reference;
      add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
    }
  }

  return report;
}

}  // namespace lrb
