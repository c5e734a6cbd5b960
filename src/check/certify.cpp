#include "check/certify.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/lower_bounds.h"
#include "solver/registry.h"

namespace lrb {
namespace {

/// a * b with saturation instead of UB on overflow. Bounds in this library
/// stay far below the saturation point (sizes <= kInfSize / 4), so a
/// saturated product only ever appears on adversarial hand-made inputs,
/// where saturating keeps the comparison direction conservative.
[[nodiscard]] std::int64_t saturating_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    return (a < 0) == (b < 0) ? std::numeric_limits<std::int64_t>::max()
                              : std::numeric_limits<std::int64_t>::min();
  }
  return out;
}

[[nodiscard]] std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return a > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return out;
}

void add_violation(SolutionCertificate& certificate, ViolationKind kind,
                   std::string detail) {
  certificate.violations.push_back(Violation{kind, std::move(detail)});
}

}  // namespace

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kStructure: return "structure";
    case ViolationKind::kMakespanMismatch: return "makespan-mismatch";
    case ViolationKind::kMovesMismatch: return "moves-mismatch";
    case ViolationKind::kCostMismatch: return "cost-mismatch";
    case ViolationKind::kMoveBudget: return "move-budget";
    case ViolationKind::kCostBudget: return "cost-budget";
    case ViolationKind::kBelowLowerBound: return "below-lower-bound";
    case ViolationKind::kApproxBound: return "approx-bound";
    case ViolationKind::kRatioVsExact: return "ratio-vs-exact";
    case ViolationKind::kExactDisagreement: return "exact-disagreement";
  }
  return "unknown";
}

std::string SolutionCertificate::to_string() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) oss << '\n';
    oss << '[' << lrb::to_string(violations[i].kind) << "] "
        << violations[i].detail;
  }
  return oss.str();
}

SolutionCertificate certify_solution(const Instance& instance,
                                     const RebalanceResult& result,
                                     const CertifyOptions& options) {
  SolutionCertificate certificate;

  if (const auto problem = validate(instance)) {
    add_violation(certificate, ViolationKind::kStructure,
                  "invalid instance: " + *problem);
    return certificate;
  }
  if (const auto problem = validate(instance, result.assignment)) {
    add_violation(certificate, ViolationKind::kStructure,
                  "invalid assignment: " + *problem);
    return certificate;
  }

  // Recompute every reported quantity from the assignment alone.
  certificate.recomputed_makespan = makespan(instance, result.assignment);
  certificate.recomputed_moves = moves_used(instance, result.assignment);
  certificate.recomputed_cost = relocation_cost(instance, result.assignment);

  if (result.makespan != certificate.recomputed_makespan) {
    std::ostringstream oss;
    oss << "reported makespan " << result.makespan << " but assignment has "
        << certificate.recomputed_makespan;
    add_violation(certificate, ViolationKind::kMakespanMismatch, oss.str());
  }
  if (result.moves != certificate.recomputed_moves) {
    std::ostringstream oss;
    oss << "reported " << result.moves << " moves but assignment has "
        << certificate.recomputed_moves;
    add_violation(certificate, ViolationKind::kMovesMismatch, oss.str());
  }
  if (result.cost != certificate.recomputed_cost) {
    std::ostringstream oss;
    oss << "reported cost " << result.cost << " but assignment has "
        << certificate.recomputed_cost;
    add_violation(certificate, ViolationKind::kCostMismatch, oss.str());
  }

  if (certificate.recomputed_moves > options.max_moves) {
    std::ostringstream oss;
    oss << certificate.recomputed_moves << " moves exceed the budget k = "
        << options.max_moves;
    add_violation(certificate, ViolationKind::kMoveBudget, oss.str());
  }
  if (certificate.recomputed_cost > options.budget) {
    std::ostringstream oss;
    oss << "relocation cost " << certificate.recomputed_cost
        << " exceeds the budget B = " << options.budget;
    add_violation(certificate, ViolationKind::kCostBudget, oss.str());
  }

  if (options.check_lower_bound && instance.num_procs > 0) {
    const auto n = static_cast<std::int64_t>(instance.num_jobs());
    // A k-move solution has makespan >= OPT(k) >= combined_lower_bound(k);
    // a budget-B solution additionally >= budget_removal_bound(B).
    const std::int64_t k_eff = std::min(options.max_moves, n);
    Size lower = combined_lower_bound(instance, k_eff);
    std::string which = "combined_lower_bound(k=" + std::to_string(k_eff) + ")";
    if (options.budget != kInfCost) {
      const Size budget_lower = budget_removal_bound(instance, options.budget);
      if (budget_lower > lower) {
        lower = budget_lower;
        which =
            "budget_removal_bound(B=" + std::to_string(options.budget) + ")";
      }
    }
    certificate.lower_bound = lower;
    if (certificate.recomputed_makespan < lower) {
      std::ostringstream oss;
      oss << "makespan " << certificate.recomputed_makespan
          << " beats the certified lower bound " << lower << " (" << which
          << ")";
      add_violation(certificate, ViolationKind::kBelowLowerBound, oss.str());
    }
  }

  if (options.bound) {
    const RatioBound& bound = *options.bound;
    // den * makespan <= num * reference + den * additive, exactly.
    const std::int64_t lhs =
        saturating_mul(bound.den, certificate.recomputed_makespan);
    const std::int64_t rhs =
        saturating_add(saturating_mul(bound.num, bound.reference),
                       saturating_mul(bound.den, bound.additive));
    if (lhs > rhs) {
      std::ostringstream oss;
      oss << "makespan " << certificate.recomputed_makespan << " > ("
          << bound.num << "/" << bound.den << ") * "
          << (bound.reference_name.empty() ? "reference" : bound.reference_name)
          << " = " << bound.num << "/" << bound.den << " * " << bound.reference;
      if (bound.additive != 0) oss << " + " << bound.additive;
      add_violation(certificate, ViolationKind::kApproxBound, oss.str());
    }
  }

  return certificate;
}

GuaranteeCheck guarantee_check(const solver::SolverSpec& spec,
                               const Instance& instance, std::int64_t k,
                               const RebalanceResult& result) {
  const auto m = static_cast<std::int64_t>(instance.num_procs);
  const auto n = static_cast<std::int64_t>(instance.num_jobs());
  GuaranteeCheck check;
  CertifyOptions& options = check.apriori;
  options.max_moves = k;

  switch (solver::descriptor(spec.backend).guarantee) {
    case solver::Guarantee::kIdentity:
      // The identity never moves and never changes the makespan.
      options.max_moves = 0;
      options.bound = RatioBound{1, 1, instance.initial_makespan(), 0,
                                 "initial makespan"};
      break;
    case solver::Guarantee::kGreedy:
      // Theorem 1's mechanism is a-priori checkable: after Step 1 the max
      // load is the Lemma 1 bound (<= lb), and each Step 2 placement lands
      // on a processor of load <= (W - s) / m, so every final load is at
      // most lb + (1 - 1/m) * lb.
      if (m > 0) {
        options.bound = RatioBound{2 * m - 1, m,
                                   combined_lower_bound(instance, k), 0,
                                   "combined_lower_bound"};
      }
      check.num = 2 * m - 1;
      check.den = m;
      break;
    case solver::Guarantee::kPartition:
      // Theorem 3's mechanism: PARTITION at the accepted threshold T (>= the
      // scan's certified starting lower bound >= max job) leaves every load
      // <= 1.5 * T, and T <= OPT(k).
      if (result.threshold > 0) {
        options.bound =
            RatioBound{3, 2, result.threshold, 0, "accepted threshold"};
      }
      check.num = 3;
      check.den = 2;
      check.threshold_at_most_opt = true;
      break;
    case solver::Guarantee::kLpt:
      // Graham's bound for the unbounded-move schedule: a-priori 2 - 1/m
      // against the lower bound, 4/3 - 1/(3m) against the optimum.
      options.max_moves = kInfSize;
      if (m > 0) {
        options.bound = RatioBound{2 * m - 1, m,
                                   combined_lower_bound(instance, n), 0,
                                   "combined_lower_bound"};
      }
      check.optimum = OptimumKind::kUnbounded;
      check.num = 4 * m - 1;
      check.den = 3 * m;
      break;
    case solver::Guarantee::kPtas:
      // (1 + eps) * OPT(B) plus one unit of discretization slack (the DP
      // rounds small loads to multiples of u >= 1).
      options.max_moves = kInfSize;
      options.budget = spec.params.budget;
      check.optimum = OptimumKind::kBudget;
      check.num = std::llround((1.0 + spec.params.eps) * 1000.0);
      check.den = 1000;
      check.additive = 1;
      break;
    case solver::Guarantee::kCostPartition:
      // 1.5 * (1 + eps) * (1 + alpha) at the CostPartitionOptions defaults
      // eps = 0.05, alpha = 0.02: exactly 3213/2000.
      options.max_moves = kInfSize;
      options.budget = spec.params.budget;
      check.optimum = OptimumKind::kBudget;
      check.num = 3213;
      check.den = 2000;
      break;
  }
  return check;
}

}  // namespace lrb
