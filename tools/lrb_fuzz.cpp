// lrb_fuzz: seeded differential fuzzer over the generator families.
//
//   lrb_fuzz --seed 1 --iters 2000
//   lrb_fuzz --seed 7 --time-budget 30 --corpus fuzz-corpus
//   lrb_fuzz --seed 1 --iters 300 --mutant --expect-violation
//            --expect-max-jobs 6        # self-test: the mutant is caught
//
// Each iteration draws a random instance (mixing every size distribution,
// placement policy and cost model, plus the paper's tight families with
// their known optima), runs the differential harness (check/differential)
// over every registry backend, and certifies every result. On a
// violation the instance is minimized with the delta-debugging shrinker
// (check/shrink) and written to the corpus directory as a replayable .lrb
// file (see docs/testing.md). Exits nonzero iff any violation was found.
//
// Flags (defaults in parentheses):
//   --seed S (1)          base seed; iteration i uses splitmix64(seed, i)
//   --iters N (1000)      iterations (0 = until the time budget)
//   --time-budget SEC (0) stop after SEC seconds (0 = no limit)
//   --corpus DIR (lrb_fuzz_corpus)   where minimized repros are written
//   --max-jobs N (40)     medium-tier instance size cap
//   --max-procs M (8)     medium-tier processor cap
//   --mutant              add the intentionally broken test rebalancer
//   --expect-violation    invert the exit code: succeed iff a violation was
//                         found (and every repro obeyed --expect-max-jobs)
//   --expect-max-jobs N (0)  with --expect-violation: require every
//                         minimized repro to have at most N jobs
//   --jobs N (1)          run iterations in waves of N on a thread pool;
//                         also adds the engine's parallel M-PARTITION to
//                         the harness (certified like m-partition) and
//                         bit-compares it against the serial scan, so the
//                         concurrent path is differentially fuzzed too.
//                         Violations are still shrunk and written serially,
//                         in iteration order.
//   --algo NAME (roster)  "roster" is the default differential harness over
//                         every backend. "ptas" instead fuzzes the PTAS
//                         DP engine against the retained reference
//                         implementation (check/ptas_reference): every
//                         guess of the shared scan sequence must match on
//                         acceptance, cost, state count, and reconstructed
//                         assignment, and the full serial / scratch-reuse /
//                         wave-parallel solves must be bit-identical.
//                         Any other registry backend with a direct library
//                         entry point (every one but best-of) instead
//                         fuzzes that backend through the solver
//                         registry: the registry solve must be
//                         bit-identical to the direct algorithm entry
//                         point AND to the scratch/pool-context solve, and
//                         the result must pass the certificate of its
//                         descriptor's guarantee (check/certify). Budgeted
//                         backends get the drawn cost budget. Violations
//                         are shrunk and written to the corpus like every
//                         other mode.
//   --cache               cache differential mode: every drawn case is
//                         solved through one process-long cache-enabled
//                         BatchSolver twice (cold-ish, then warm) plus once
//                         more under a random job/processor relabeling, and
//                         each reply is byte-compared against
//                         engine::cached_serial_reference. Violations are
//                         shrunk (each shrink candidate gets a FRESH
//                         cache-enabled solver, so cold and warm paths are
//                         both replayed) and written to the corpus.
//   --verbose             print every violation in full

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/cost_partition.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/lpt.h"
#include "algo/m_partition.h"
#include "algo/ptas.h"
#include "check/certify.h"
#include "check/differential.h"
#include "check/ptas_reference.h"
#include "check/shrink.h"
#include "core/generators.h"
#include "core/io.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace lrb;

int fail(const std::string& message) {
  std::cerr << "lrb_fuzz: " << message << "\n";
  return 2;
}

/// Intentionally broken GREEDY (enabled by --mutant): Step 1 removes the
/// largest job from the max-loaded processor as the paper prescribes, but
/// Step 2 reinserts onto the currently MAX-loaded processor instead of the
/// min-loaded one - breaking the (2 - 1/m) guarantee the certifier checks.
RebalanceResult mutant_greedy(const Instance& instance, std::int64_t k) {
  Assignment assignment = instance.initial;
  auto load = instance.initial_loads();
  auto by_proc = instance.jobs_by_proc();
  for (auto& jobs : by_proc) {
    std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
      if (instance.sizes[a] != instance.sizes[b]) {
        return instance.sizes[a] > instance.sizes[b];
      }
      return a < b;
    });
  }
  std::vector<std::size_t> next(instance.num_procs, 0);
  std::vector<JobId> removed;
  for (std::int64_t step = 0; step < k; ++step) {
    ProcId heaviest = 0;
    for (ProcId p = 1; p < instance.num_procs; ++p) {
      if (load[p] > load[heaviest]) heaviest = p;
    }
    if (next[heaviest] >= by_proc[heaviest].size()) break;
    const JobId victim = by_proc[heaviest][next[heaviest]++];
    load[heaviest] -= instance.sizes[victim];
    removed.push_back(victim);
  }
  for (const JobId job : removed) {
    ProcId target = 0;  // the bug: should be the MIN-loaded processor
    for (ProcId p = 1; p < instance.num_procs; ++p) {
      if (load[p] > load[target]) target = p;
    }
    assignment[job] = target;
    load[target] += instance.sizes[job];
  }
  return finalize_result(instance, std::move(assignment));
}

struct FuzzCase {
  Instance instance;
  DifferentialOptions options;
  std::string family;
};

FuzzCase draw_case(Rng& rng, std::int64_t max_jobs, std::int64_t max_procs) {
  FuzzCase out;
  const auto roll = rng.uniform_int(0, 99);

  if (roll < 4) {
    // Theorem 1's tight family: GREEDY sits exactly on its bound.
    const auto m = static_cast<ProcId>(rng.uniform_int(2, 5));
    auto family = greedy_tight_instance(m);
    out.instance = std::move(family.instance);
    out.options.k = family.k;
    out.options.known_opt = family.opt;
    out.options.run_cost_algorithms = false;
    out.family = "tight-greedy";
    return out;
  }
  if (roll < 6) {
    auto family = partition_tight_instance();
    out.instance = std::move(family.instance);
    out.options.k = family.k;
    out.options.known_opt = family.opt;
    out.options.run_cost_algorithms = false;
    out.family = "tight-partition";
    return out;
  }

  GeneratorOptions gen;
  const bool small = roll < 70;
  if (small) {
    gen.num_jobs = static_cast<std::size_t>(rng.uniform_int(0, 12));
    gen.num_procs = static_cast<ProcId>(rng.uniform_int(1, 4));
    gen.max_size = rng.uniform_int(1, 20);
  } else {
    gen.num_jobs =
        static_cast<std::size_t>(rng.uniform_int(13, std::max<std::int64_t>(
                                                         13, max_jobs)));
    gen.num_procs = static_cast<ProcId>(
        rng.uniform_int(2, std::max<std::int64_t>(2, max_procs)));
    const std::int64_t magnitudes[] = {10, 1000, 1'000'000,
                                       (std::int64_t{1} << 32)};
    gen.max_size = magnitudes[rng.uniform_int(0, 3)];
  }
  gen.min_size = rng.bernoulli(0.2) ? 0 : 1;
  gen.size_dist = static_cast<SizeDistribution>(rng.uniform_int(0, 4));
  gen.placement = static_cast<PlacementPolicy>(rng.uniform_int(0, 4));
  gen.cost_model = static_cast<CostModel>(rng.uniform_int(0, 4));
  gen.max_cost = rng.uniform_int(1, 12);

  const auto n = static_cast<std::int64_t>(gen.num_jobs);
  out.instance = random_instance(gen, rng());
  out.options.k = rng.uniform_int(0, n + 2);
  out.options.budget = rng.uniform_int(0, 2 * n + 4);
  out.family = small ? "small-random" : "medium-random";
  return out;
}

/// True iff the engine's chunked parallel scan reproduces the serial scan
/// bit-for-bit (results and stats) on this instance — the engine's core
/// determinism contract, checked here under real pool contention.
bool engine_matches_serial(const Instance& instance, std::int64_t k,
                           ThreadPool& pool) {
  MPartitionStats serial_stats;
  MPartitionStats parallel_stats;
  const auto serial = m_partition_rebalance(instance, k, &serial_stats);
  const auto parallel =
      m_partition_rebalance_parallel(instance, k, pool, &parallel_stats, 2);
  return serial.assignment == parallel.assignment &&
         serial.makespan == parallel.makespan &&
         serial.moves == parallel.moves && serial.cost == parallel.cost &&
         serial.threshold == parallel.threshold &&
         serial_stats.accepted_threshold == parallel_stats.accepted_threshold &&
         serial_stats.start_threshold == parallel_stats.start_threshold &&
         serial_stats.removals == parallel_stats.removals &&
         serial_stats.guesses_evaluated == parallel_stats.guesses_evaluated;
}

bool ensure_corpus_dir(const std::string& corpus, bool& ready) {
  if (ready) return true;
  std::error_code ec;
  std::filesystem::create_directories(corpus, ec);
  if (ec) return false;
  ready = true;
  return true;
}

// ---- PTAS differential mode (--algo ptas) ---------------------------------

struct PtasCase {
  Instance instance;
  double eps = 1.0;
  Cost budget = kInfCost;
  std::size_t state_limit = 200'000;
  std::string family;
};

PtasCase draw_ptas_case(Rng& rng, std::int64_t max_jobs,
                        std::int64_t max_procs) {
  PtasCase out;
  GeneratorOptions gen;
  const auto roll = rng.uniform_int(0, 99);
  const bool small = roll < 70;
  // The DP is exponential in 1/eps, so the PTAS tier stays below the roster
  // tier's caps; the interesting structure (class boundaries, budget edge,
  // state-limit aborts) shows up at tiny n already.
  const std::int64_t job_cap = std::min<std::int64_t>(max_jobs, 14);
  if (small) {
    gen.num_jobs = static_cast<std::size_t>(rng.uniform_int(0, 8));
    gen.num_procs = static_cast<ProcId>(rng.uniform_int(1, 3));
    gen.max_size = rng.uniform_int(1, 20);
  } else {
    gen.num_jobs = static_cast<std::size_t>(
        rng.uniform_int(9, std::max<std::int64_t>(9, job_cap)));
    gen.num_procs = static_cast<ProcId>(
        rng.uniform_int(2, std::max<std::int64_t>(2, std::min<std::int64_t>(
                                                         max_procs, 4))));
    const std::int64_t magnitudes[] = {10, 1000, 1'000'000};
    gen.max_size = magnitudes[rng.uniform_int(0, 2)];
  }
  gen.min_size = rng.bernoulli(0.2) ? 0 : 1;
  gen.size_dist = static_cast<SizeDistribution>(rng.uniform_int(0, 4));
  gen.placement = static_cast<PlacementPolicy>(rng.uniform_int(0, 4));
  gen.cost_model = static_cast<CostModel>(rng.uniform_int(0, 4));
  gen.max_cost = rng.uniform_int(1, 12);
  out.instance = random_instance(gen, rng());

  const double eps_choices[] = {0.4, 0.6, 1.0, 2.0};
  out.eps = eps_choices[rng.uniform_int(0, 3)];
  const auto n = static_cast<std::int64_t>(gen.num_jobs);
  out.budget =
      rng.bernoulli(0.3) ? kInfCost : rng.uniform_int(0, 2 * n + 4);
  // Occasionally force a state-limit abort: the exact state count at which
  // both engines give up is part of the parity contract.
  if (rng.bernoulli(0.15)) {
    out.state_limit = static_cast<std::size_t>(rng.uniform_int(1, 200));
  }
  out.family = small ? "ptas-small" : "ptas-medium";
  return out;
}

/// Empty string iff the production PTAS engine and the reference DP agree on
/// every guess of the shared scan, and the serial / scratch-reuse /
/// wave-parallel full solves are bit-identical.
std::string ptas_divergence(const Instance& instance, double eps, Cost budget,
                            std::size_t state_limit, ThreadPool& pool) {
  PtasScratch scratch;
  const double delta = ptas_delta(eps);
  Size guess = ptas_scan_start(instance, budget);
  const Size stop = ptas_scan_stop(instance);
  while (guess <= stop) {
    const auto eng = ptas_probe_guess(instance, guess, eps, budget,
                                      state_limit, scratch,
                                      /*reconstruct=*/true);
    const auto ref =
        ptas_reference_guess(instance, guess, eps, budget, state_limit);
    if (eng.representable != ref.representable ||
        eng.within_limit != ref.within_limit ||
        eng.constructed != ref.constructed || eng.cost != ref.cost ||
        eng.states != ref.states) {
      return "guess " + std::to_string(guess) + ": outcome mismatch (engine " +
             std::to_string(eng.cost) + "/" + std::to_string(eng.states) +
             " states vs reference " + std::to_string(ref.cost) + "/" +
             std::to_string(ref.states) + " states)";
    }
    if (eng.constructed && eng.assignment != ref.assignment) {
      return "guess " + std::to_string(guess) +
             ": reconstructed assignments differ";
    }
    if (!eng.within_limit) break;
    if (eng.constructed && eng.cost <= budget) break;
    guess = ptas_next_guess(guess, delta);
  }

  PtasOptions options;
  options.eps = eps;
  options.budget = budget;
  options.state_limit = state_limit;
  const auto same = [](const PtasResult& a, const PtasResult& b) {
    return a.success == b.success && a.accepted_guess == b.accepted_guess &&
           a.states == b.states &&
           a.guesses_evaluated == b.guesses_evaluated &&
           a.result.assignment == b.result.assignment &&
           a.result.makespan == b.result.makespan &&
           a.result.cost == b.result.cost && a.result.moves == b.result.moves;
  };
  const auto serial = ptas_rebalance(instance, options);
  // `scratch` is warm (and dirty) from the probes above: reuse must not
  // change anything.
  const auto reused = ptas_rebalance(instance, options, scratch);
  if (!same(serial, reused)) return "scratch-reuse solve diverges from fresh";
  const auto parallel = ptas_rebalance_parallel(instance, options, pool, 3);
  if (!same(serial, parallel)) return "wave-parallel solve diverges";
  return {};
}

// ---- cache differential mode (--cache) ------------------------------------

struct CacheCase {
  Instance instance;
  std::int64_t k = 0;
  solver::SolverSpec spec;
  std::uint64_t relabel_seed = 0;
  std::string family;
};

CacheCase draw_cache_case(Rng& rng, std::int64_t max_jobs,
                          std::int64_t max_procs) {
  CacheCase out;
  auto fuzz_case = draw_case(rng, max_jobs, max_procs);
  out.instance = std::move(fuzz_case.instance);
  out.k = fuzz_case.options.k;
  out.family = fuzz_case.family;
  out.relabel_seed = rng();
  const auto roll = rng.uniform_int(0, 9);
  if (roll >= 9 && out.instance.num_jobs() <= 10) {
    // The PTAS tier stays tiny: the DP is exponential in 1/eps and runs
    // (at least) twice per case here.
    out.spec.backend = solver::BackendId::kPtas;
    const double eps_choices[] = {0.4, 1.0, 2.0};
    out.spec.params.eps = eps_choices[rng.uniform_int(0, 2)];
    if (rng.bernoulli(0.5)) out.spec.params.budget = fuzz_case.options.budget;
  } else {
    // Every other backend, drawn uniformly from the registry.
    std::vector<solver::BackendId> backends;
    for (const auto& backend : solver::all_backends()) {
      if (backend.id != solver::BackendId::kPtas) {
        backends.push_back(backend.id);
      }
    }
    out.spec.backend = backends[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(backends.size()) - 1))];
    if (solver::descriptor(out.spec.backend).budgeted && rng.bernoulli(0.5)) {
      out.spec.params.budget = fuzz_case.options.budget;
    }
  }
  return out;
}

/// Random job/processor relabeling of `in` (deterministic in `seed`): the
/// same problem under different labels, which a correct cache must answer
/// from the same canonical entry, mapped back byte-exactly.
Instance relabel_instance(const Instance& in, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobId> job_perm(in.num_jobs());
  std::vector<ProcId> proc_perm(in.num_procs);
  for (std::size_t j = 0; j < job_perm.size(); ++j) {
    job_perm[j] = static_cast<JobId>(j);
  }
  for (ProcId p = 0; p < in.num_procs; ++p) proc_perm[p] = p;
  shuffle(std::span<JobId>(job_perm), rng);
  shuffle(std::span<ProcId>(proc_perm), rng);
  Instance out;
  out.num_procs = in.num_procs;
  out.sizes.resize(in.num_jobs());
  out.move_costs.resize(in.num_jobs());
  out.initial.resize(in.num_jobs());
  for (std::size_t j = 0; j < in.num_jobs(); ++j) {
    out.sizes[job_perm[j]] = in.sizes[j];
    out.move_costs[job_perm[j]] = in.move_costs[j];
    out.initial[job_perm[j]] = proc_perm[in.initial[j]];
  }
  return out;
}

std::string cache_reply_mismatch(const RebalanceResult& got,
                                 const RebalanceResult& want) {
  if (got.assignment != want.assignment) return "assignment differs";
  if (got.makespan != want.makespan) return "makespan differs";
  if (got.moves != want.moves) return "moves differ";
  if (got.cost != want.cost) return "cost differs";
  if (got.threshold != want.threshold) return "threshold differs";
  return {};
}

/// Empty string iff `solver` (cache-enabled) answers this case
/// byte-identically to cached_serial_reference on a first pass, a second
/// (guaranteed-warm) pass, and a warm pass under a random relabeling.
std::string cache_divergence(engine::BatchSolver& solver,
                             const CacheCase& fuzz_case) {
  const RebalanceResult want = engine::cached_serial_reference(
      fuzz_case.spec, fuzz_case.instance, fuzz_case.k);
  engine::BatchSolver::TickItem item;
  item.instance = &fuzz_case.instance;
  item.k = fuzz_case.k;
  item.spec = fuzz_case.spec;
  const char* pass_names[] = {"first", "warm"};
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = solver.solve_items({&item, 1});
    if (const auto why = cache_reply_mismatch(got[0], want); !why.empty()) {
      return std::string(pass_names[pass]) + "-pass reply: " + why;
    }
  }
  const Instance shuffled =
      relabel_instance(fuzz_case.instance, fuzz_case.relabel_seed);
  const RebalanceResult shuffled_want = engine::cached_serial_reference(
      fuzz_case.spec, shuffled, fuzz_case.k);
  engine::BatchSolver::TickItem shuffled_item = item;
  shuffled_item.instance = &shuffled;
  const auto got = solver.solve_items({&shuffled_item, 1});
  if (const auto why = cache_reply_mismatch(got[0], shuffled_want);
      !why.empty()) {
    return "relabeled warm-pass reply: " + why;
  }
  return {};
}

/// Shrink predicate: a FRESH single-worker cache-enabled solver per
/// candidate, so the cold miss, the warm hit and the relabeled hit are all
/// replayed from scratch.
std::string cache_divergence_fresh(const CacheCase& fuzz_case) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 1;
  options.cache_bytes = std::size_t{4} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);
  return cache_divergence(solver, fuzz_case);
}

// ---- registry backend differential mode (--algo <backend>) ----------------

/// The backend's direct library entry point, bypassing the registry;
/// nullopt for backends that have none (best-of; the PTAS has its own mode).
std::optional<RebalanceResult> direct_entry_point(
    const solver::SolverSpec& spec, const Instance& instance, std::int64_t k) {
  switch (spec.backend) {
    case solver::BackendId::kGreedy:
      return greedy_rebalance(instance, k);
    case solver::BackendId::kMPartition:
      return m_partition_rebalance(instance, k);
    case solver::BackendId::kLpt:
      return lpt_schedule(instance);
    case solver::BackendId::kLocalSearch:
      return m_partition_ls_rebalance(instance, k);
    case solver::BackendId::kNone:
      return no_move_result(instance);
    case solver::BackendId::kCostPartition: {
      CostPartitionOptions options;
      options.budget = spec.params.budget;
      return cost_partition_rebalance(instance, options);
    }
    case solver::BackendId::kBestOf:
    case solver::BackendId::kPtas:
      break;
  }
  return std::nullopt;
}

/// Empty string iff the registry's solve of `spec` is bit-identical to the
/// backend's direct algorithm entry point AND to the registry solve under a
/// scratch/pool context (forced intra-parallel threshold), and the result
/// passes the a-priori certificate of the backend's guarantee. The
/// differential target here is the registry seam itself: dispatch, context
/// plumbing and normalization must not change results.
std::string backend_divergence(const solver::SolverSpec& spec,
                               const Instance& instance, std::int64_t k,
                               ThreadPool& pool) {
  const RebalanceResult got = solver::solve_serial(spec, instance, k);
  const auto direct = direct_entry_point(spec, instance, k);
  if (!direct) return "backend has no direct differential reference";
  if (got.assignment != direct->assignment ||
      got.makespan != direct->makespan || got.moves != direct->moves ||
      got.cost != direct->cost || got.threshold != direct->threshold) {
    return "registry solve differs from the direct entry point";
  }
  MPartitionScratch m_partition_scratch;
  PtasScratch ptas_scratch;
  solver::SolveContext ctx;
  ctx.pool = &pool;
  ctx.intra_parallel_min_jobs = 2;  // force the parallel scan paths
  ctx.m_partition = &m_partition_scratch;
  ctx.ptas = &ptas_scratch;
  const RebalanceResult accelerated = solver::solve(spec, instance, k, ctx);
  if (got.assignment != accelerated.assignment ||
      got.makespan != accelerated.makespan || got.moves != accelerated.moves ||
      got.cost != accelerated.cost || got.threshold != accelerated.threshold) {
    return "context/parallel solve diverges from the serial solve";
  }
  const auto certificate = certify_solution(
      instance, got, guarantee_check(spec, instance, k, got).apriori);
  if (!certificate.ok()) return certificate.to_string();
  return {};
}

void write_repro(const std::filesystem::path& path, const Instance& instance,
                 const DifferentialOptions& options,
                 const DifferentialReport& report, std::uint64_t seed,
                 std::uint64_t iteration, const std::string& family) {
  std::ofstream out(path);
  out << "# lrb_fuzz minimized repro (replay: see docs/testing.md)\n"
      << "# seed=" << seed << " iteration=" << iteration << " family="
      << family << "\n"
      << "# k=" << options.k;
  if (options.budget != kInfCost) out << " budget=" << options.budget;
  if (options.known_opt > 0) out << " known-opt=" << options.known_opt;
  out << "\n";
  for (const auto& finding : report.findings) {
    for (const auto& violation : finding.certificate.violations) {
      out << "# violation: " << finding.algorithm << " ["
          << to_string(violation.kind) << "] " << violation.detail << "\n";
    }
  }
  write_instance(out, instance);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_fuzz");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {"seed",      "iters",           "time-budget",
                                  "corpus",    "max-jobs",        "max-procs",
                                  "mutant",    "expect-violation",
                                  "expect-max-jobs", "verbose",   "jobs",
                                  "algo",      "cache",           "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::int64_t iters = flags.get_int("iters", 1000);
  const double time_budget = flags.get_double("time-budget", 0.0);
  const std::string corpus = flags.get_or("corpus", "lrb_fuzz_corpus");
  const std::int64_t max_jobs = flags.get_int("max-jobs", 40);
  const std::int64_t max_procs = flags.get_int("max-procs", 8);
  const bool with_mutant = flags.has("mutant");
  const bool expect_violation = flags.has("expect-violation");
  const std::int64_t expect_max_jobs = flags.get_int("expect-max-jobs", 0);
  const bool verbose = flags.has("verbose");
  const std::int64_t jobs_raw = flags.get_int("jobs", 1);
  if (iters <= 0 && time_budget <= 0.0) {
    return fail("need --iters > 0 or --time-budget > 0");
  }
  if (jobs_raw < 1 || jobs_raw > 256) return fail("--jobs must be in [1, 256]");
  const auto jobs = static_cast<std::size_t>(jobs_raw);
  const std::string algo = flags.get_or("algo", "roster");
  solver::SolverSpec backend_spec;
  const bool backend_mode =
      algo != "roster" && algo != "ptas" &&
      solver::parse_backend(algo, &backend_spec.backend);
  if (algo != "roster" && algo != "ptas" && !backend_mode) {
    return fail("--algo must be 'roster', 'ptas', or a registry backend (" +
                solver::backend_list() + ")");
  }
  if (backend_mode && backend_spec.backend == solver::BackendId::kBestOf) {
    return fail("--algo " + algo +
                " has no direct library entry point to fuzz against");
  }
  const bool cache_mode = flags.has("cache");
  if (cache_mode && algo != "roster") {
    return fail("--cache and --algo " + algo + " are mutually exclusive");
  }
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  Timer timer;
  std::int64_t violations = 0;
  std::size_t largest_repro = 0;
  bool corpus_ready = false;
  std::uint64_t iteration = 0;

  if (algo == "ptas") {
    // PTAS differential mode: engine vs reference, serially, one case per
    // iteration (the DP itself is the expensive part).
    ThreadPool ptas_pool(pool != nullptr ? jobs : 2);
    for (;;) {
      if (iters > 0 && iteration >= static_cast<std::uint64_t>(iters)) break;
      if (time_budget > 0.0 && timer.millis() >= time_budget * 1000.0) break;
      const std::uint64_t it = iteration++;
      std::uint64_t stream = seed;
      (void)splitmix64(stream);
      Rng rng(stream ^ (it * 0x9e3779b97f4a7c15ULL));
      auto fuzz_case = draw_ptas_case(rng, max_jobs, max_procs);
      const auto divergence =
          ptas_divergence(fuzz_case.instance, fuzz_case.eps, fuzz_case.budget,
                          fuzz_case.state_limit, ptas_pool);
      if (divergence.empty()) continue;

      ++violations;
      std::cerr << "lrb_fuzz: ptas divergence at iteration " << it << " ("
                << fuzz_case.family << ", n=" << fuzz_case.instance.num_jobs()
                << ", m=" << fuzz_case.instance.num_procs
                << ", eps=" << fuzz_case.eps << "): " << divergence << "\n";
      const auto still_diverges = [&](const Instance& candidate) {
        return !ptas_divergence(candidate, fuzz_case.eps, fuzz_case.budget,
                                fuzz_case.state_limit, ptas_pool)
                    .empty();
      };
      ShrinkOptions shrink_options;
      shrink_options.max_evaluations = 2'000;
      const auto minimized =
          shrink_instance(fuzz_case.instance, still_diverges, shrink_options);
      largest_repro = std::max(largest_repro, minimized.instance.num_jobs());
      if (!ensure_corpus_dir(corpus, corpus_ready)) {
        return fail("cannot create corpus dir " + corpus);
      }
      const auto path = std::filesystem::path(corpus) /
                        ("repro_" + std::to_string(it) + "_ptas.lrb");
      std::ofstream out(path);
      out << "# lrb_fuzz minimized repro (ptas differential: engine vs "
             "reference)\n"
          << "# seed=" << seed << " iteration=" << it
          << " family=" << fuzz_case.family << "\n"
          << "# eps=" << fuzz_case.eps << " state-limit="
          << fuzz_case.state_limit;
      if (fuzz_case.budget != kInfCost) out << " budget=" << fuzz_case.budget;
      out << "\n# divergence: "
          << ptas_divergence(minimized.instance, fuzz_case.eps,
                             fuzz_case.budget, fuzz_case.state_limit,
                             ptas_pool)
          << "\n";
      write_instance(out, minimized.instance);
      std::cerr << "lrb_fuzz: minimized to n=" << minimized.instance.num_jobs()
                << ", m=" << minimized.instance.num_procs << " -> "
                << path.string() << "\n";
    }
    std::cout << "lrb_fuzz: " << iteration << " ptas iterations, "
              << violations << " violation(s) in " << timer.millis() / 1000.0
              << " s\n";
    if (expect_violation) {
      if (violations == 0) {
        std::cerr << "lrb_fuzz: expected a violation but found none\n";
        return 1;
      }
      return 0;
    }
    return violations == 0 ? 0 : 1;
  }

  if (backend_mode) {
    // Registry backend differential mode: registry dispatch vs the direct
    // algorithm entry point vs the context-accelerated solve, plus the
    // certificate of the backend's guarantee, one case per iteration.
    ThreadPool backend_pool(pool != nullptr ? jobs : 2);
    const std::string backend_name =
        solver::backend_name(backend_spec.backend);
    for (;;) {
      if (iters > 0 && iteration >= static_cast<std::uint64_t>(iters)) break;
      if (time_budget > 0.0 && timer.millis() >= time_budget * 1000.0) break;
      const std::uint64_t it = iteration++;
      std::uint64_t stream = seed;
      (void)splitmix64(stream);
      Rng rng(stream ^ (it * 0x9e3779b97f4a7c15ULL));
      auto fuzz_case = draw_case(rng, max_jobs, max_procs);
      const std::int64_t k = fuzz_case.options.k;
      solver::SolverSpec spec = backend_spec;
      if (solver::descriptor(spec.backend).budgeted) {
        spec.params.budget = fuzz_case.options.budget;
      }
      const auto divergence =
          backend_divergence(spec, fuzz_case.instance, k, backend_pool);
      if (divergence.empty()) continue;

      ++violations;
      std::cerr << "lrb_fuzz: " << backend_name
                << " divergence at iteration " << it << " ("
                << fuzz_case.family << ", n=" << fuzz_case.instance.num_jobs()
                << ", m=" << fuzz_case.instance.num_procs << ", k=" << k
                << "): " << divergence << "\n";
      const auto still_diverges = [&](const Instance& candidate) {
        return !backend_divergence(spec, candidate, k, backend_pool).empty();
      };
      ShrinkOptions shrink_options;
      shrink_options.max_evaluations = 2'000;
      const auto minimized =
          shrink_instance(fuzz_case.instance, still_diverges, shrink_options);
      largest_repro = std::max(largest_repro, minimized.instance.num_jobs());
      if (!ensure_corpus_dir(corpus, corpus_ready)) {
        return fail("cannot create corpus dir " + corpus);
      }
      const auto path =
          std::filesystem::path(corpus) /
          ("repro_" + std::to_string(it) + "_" + backend_name + ".lrb");
      std::ofstream out(path);
      out << "# lrb_fuzz minimized repro (" << backend_name
          << " registry differential: registry vs direct entry point)\n"
          << "# seed=" << seed << " iteration=" << it
          << " family=" << fuzz_case.family << "\n"
          << "# k=" << k;
      if (spec.params.budget != kInfCost) {
        out << " budget=" << spec.params.budget;
      }
      out << "\n# divergence: "
          << backend_divergence(spec, minimized.instance, k, backend_pool)
          << "\n";
      write_instance(out, minimized.instance);
      std::cerr << "lrb_fuzz: minimized to n=" << minimized.instance.num_jobs()
                << ", m=" << minimized.instance.num_procs << " -> "
                << path.string() << "\n";
    }
    std::cout << "lrb_fuzz: " << iteration << " " << backend_name
              << " iterations, " << violations << " violation(s) in "
              << timer.millis() / 1000.0 << " s\n";
    if (expect_violation) {
      if (violations == 0) {
        std::cerr << "lrb_fuzz: expected a violation but found none\n";
        return 1;
      }
      return 0;
    }
    return violations == 0 ? 0 : 1;
  }

  if (cache_mode) {
    // Cache differential mode: one process-long cache-enabled solver, so
    // later iterations run against a cache warmed (and evicted) by earlier
    // ones; a small budget keeps the LRU churning.
    obs::Registry registry;
    engine::BatchOptions solver_options;
    solver_options.workers = jobs > 1 ? jobs : 2;
    solver_options.cache_bytes = std::size_t{4} << 20;
    solver_options.cache_shards = 4;
    solver_options.metrics = &registry;
    engine::BatchSolver solver(solver_options);

    for (;;) {
      if (iters > 0 && iteration >= static_cast<std::uint64_t>(iters)) break;
      if (time_budget > 0.0 && timer.millis() >= time_budget * 1000.0) break;
      const std::uint64_t it = iteration++;
      std::uint64_t stream = seed;
      (void)splitmix64(stream);
      Rng rng(stream ^ (it * 0x9e3779b97f4a7c15ULL));
      auto fuzz_case = draw_cache_case(rng, max_jobs, max_procs);
      const auto divergence = cache_divergence(solver, fuzz_case);
      if (divergence.empty()) continue;

      ++violations;
      std::cerr << "lrb_fuzz: cache divergence at iteration " << it << " ("
                << fuzz_case.family << ", n=" << fuzz_case.instance.num_jobs()
                << ", m=" << fuzz_case.instance.num_procs
                << ", k=" << fuzz_case.k << ", algo="
                << solver::backend_name(fuzz_case.spec.backend)
                << "): " << divergence << "\n";
      const auto still_diverges = [&](const Instance& candidate) {
        CacheCase shrunk = fuzz_case;
        shrunk.instance = candidate;
        return !cache_divergence_fresh(shrunk).empty();
      };
      ShrinkOptions shrink_options;
      shrink_options.max_evaluations = 2'000;
      const auto minimized =
          shrink_instance(fuzz_case.instance, still_diverges, shrink_options);
      largest_repro = std::max(largest_repro, minimized.instance.num_jobs());
      if (!ensure_corpus_dir(corpus, corpus_ready)) {
        return fail("cannot create corpus dir " + corpus);
      }
      const auto path = std::filesystem::path(corpus) /
                        ("repro_" + std::to_string(it) + "_cache.lrb");
      CacheCase minimized_case = fuzz_case;
      minimized_case.instance = minimized.instance;
      std::ofstream out(path);
      out << "# lrb_fuzz minimized repro (cache differential: cached solver "
             "vs cached_serial_reference)\n"
          << "# seed=" << seed << " iteration=" << it
          << " family=" << fuzz_case.family << "\n"
          << "# k=" << fuzz_case.k << " algo="
          << solver::backend_name(fuzz_case.spec.backend)
          << " eps=" << fuzz_case.spec.params.eps
          << " relabel-seed=" << fuzz_case.relabel_seed;
      if (fuzz_case.spec.params.budget != kInfCost) {
        out << " budget=" << fuzz_case.spec.params.budget;
      }
      out << "\n# divergence: " << cache_divergence_fresh(minimized_case)
          << "\n";
      write_instance(out, minimized.instance);
      std::cerr << "lrb_fuzz: minimized to n=" << minimized.instance.num_jobs()
                << ", m=" << minimized.instance.num_procs << " -> "
                << path.string() << "\n";
    }
    std::cout << "lrb_fuzz: " << iteration << " cache iterations, "
              << violations << " violation(s), "
              << registry.counter("cache.hits").value() << " hits / "
              << registry.counter("cache.misses").value() << " misses / "
              << registry.counter("cache.evictions").value()
              << " evictions in " << timer.millis() / 1000.0 << " s\n";
    if (expect_violation) {
      if (violations == 0) {
        std::cerr << "lrb_fuzz: expected a violation but found none\n";
        return 1;
      }
      return 0;
    }
    return violations == 0 ? 0 : 1;
  }

  struct IterationResult {
    FuzzCase fuzz_case;
    DifferentialReport report;
    bool engine_deterministic = true;
  };

  // One fuzz iteration: deterministic in (seed, iter) regardless of which
  // worker runs it or in what order.
  const auto run_iteration = [&](std::uint64_t iter) {
    IterationResult out;
    std::uint64_t stream = seed;
    (void)splitmix64(stream);
    Rng rng(stream ^ (iter * 0x9e3779b97f4a7c15ULL));
    out.fuzz_case = draw_case(rng, max_jobs, max_procs);
    if (with_mutant) {
      out.fuzz_case.options.extra.push_back(
          {"mutant-greedy", mutant_greedy, solver::BackendId::kGreedy});
    }
    if (pool != nullptr) {
      // Route M-PARTITION through the engine's chunked parallel scan (on
      // the shared, already-busy pool) and certify it like the serial one.
      ThreadPool* p = pool.get();
      out.fuzz_case.options.extra.push_back(
          {"engine-m-partition",
           [p](const Instance& inst, std::int64_t k) {
             return m_partition_rebalance_parallel(inst, k, *p, nullptr, 2);
           },
           solver::BackendId::kMPartition});
    }
    out.report =
        differential_check(out.fuzz_case.instance, out.fuzz_case.options);
    if (pool != nullptr) {
      out.engine_deterministic = engine_matches_serial(
          out.fuzz_case.instance, out.fuzz_case.options.k, *pool);
    }
    return out;
  };

  const auto ensure_corpus = [&]() -> bool {
    if (corpus_ready) return true;
    std::error_code ec;
    std::filesystem::create_directories(corpus, ec);
    if (ec) return false;
    corpus_ready = true;
    return true;
  };

  const std::size_t wave = pool != nullptr ? 4 * jobs : 1;
  for (;;) {
    if (iters > 0 && iteration >= static_cast<std::uint64_t>(iters)) break;
    if (time_budget > 0.0 && timer.millis() >= time_budget * 1000.0) break;

    std::vector<std::uint64_t> batch;
    for (std::size_t i = 0; i < wave; ++i) {
      const std::uint64_t it = iteration + i;
      if (iters > 0 && it >= static_cast<std::uint64_t>(iters)) break;
      batch.push_back(it);
    }
    if (batch.empty()) break;
    std::vector<IterationResult> results(batch.size());
    if (pool != nullptr) {
      parallel_for(*pool, 0, batch.size(),
                   [&](std::size_t i) { results[i] = run_iteration(batch[i]); });
    } else {
      results[0] = run_iteration(batch[0]);
    }
    iteration += batch.size();

    // Violations are processed strictly serially, in iteration order:
    // shrinking replays the harness on the main thread and repro files are
    // named by iteration.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint64_t it = batch[i];
      auto& fuzz_case = results[i].fuzz_case;
      const auto& report = results[i].report;

      if (!results[i].engine_deterministic) {
        ++violations;
        std::cerr << "lrb_fuzz: engine determinism violation at iteration "
                  << it << " (" << fuzz_case.family
                  << ", n=" << fuzz_case.instance.num_jobs()
                  << ", m=" << fuzz_case.instance.num_procs
                  << ", k=" << fuzz_case.options.k << ")\n";
        const auto mismatch = [&](const Instance& candidate) {
          return !engine_matches_serial(candidate, fuzz_case.options.k, *pool);
        };
        ShrinkOptions shrink_options;
        shrink_options.max_evaluations = 2'000;
        const auto minimized =
            shrink_instance(fuzz_case.instance, mismatch, shrink_options);
        largest_repro = std::max(largest_repro, minimized.instance.num_jobs());
        if (!ensure_corpus()) return fail("cannot create corpus dir " + corpus);
        const auto path = std::filesystem::path(corpus) /
                          ("repro_" + std::to_string(it) + "_determinism.lrb");
        std::ofstream out(path);
        out << "# lrb_fuzz minimized repro (engine determinism: parallel "
               "M-PARTITION != serial)\n"
            << "# seed=" << seed << " iteration=" << it << " family="
            << fuzz_case.family << "\n"
            << "# k=" << fuzz_case.options.k << "\n";
        write_instance(out, minimized.instance);
        std::cerr << "lrb_fuzz: minimized to n="
                  << minimized.instance.num_jobs()
                  << ", m=" << minimized.instance.num_procs << " -> "
                  << path.string() << "\n";
      }

      if (report.ok()) continue;

      ++violations;
      std::cerr << "lrb_fuzz: violation at iteration " << it << " ("
                << fuzz_case.family << ", n=" << fuzz_case.instance.num_jobs()
                << ", m=" << fuzz_case.instance.num_procs
                << ", k=" << fuzz_case.options.k << ")\n";
      if (verbose) std::cerr << report.to_string() << "\n";

      // Minimize: any of the original (algorithm, kind) signatures counts
      // as the same failure. Unless the concurrent path itself is part of
      // the signature, replay is fully serial: the engine extra is dropped
      // from the shrink options.
      const auto signatures = report.signatures();
      DifferentialOptions shrink_case_options = fuzz_case.options;
      const bool engine_in_signature =
          std::any_of(signatures.begin(), signatures.end(), [](const auto& s) {
            return s.first == "engine-m-partition";
          });
      if (!engine_in_signature) {
        std::erase_if(shrink_case_options.extra,
                      [](const CheckedRebalancer& extra) {
                        return extra.name == "engine-m-partition";
                      });
      }
      const auto still_fails = [&](const Instance& candidate) {
        const auto candidate_report =
            differential_check(candidate, shrink_case_options);
        for (const auto& sig : candidate_report.signatures()) {
          for (const auto& wanted : signatures) {
            if (sig == wanted) return true;
          }
        }
        return false;
      };
      ShrinkOptions shrink_options;
      shrink_options.max_evaluations = 2'000;
      const auto minimized =
          shrink_instance(fuzz_case.instance, still_fails, shrink_options);
      largest_repro = std::max(largest_repro, minimized.instance.num_jobs());
      const auto minimized_report =
          differential_check(minimized.instance, shrink_case_options);

      if (!ensure_corpus()) return fail("cannot create corpus dir " + corpus);
      const auto path = std::filesystem::path(corpus) /
                        ("repro_" + std::to_string(it) + ".lrb");
      write_repro(path, minimized.instance, shrink_case_options,
                  minimized_report, seed, it, fuzz_case.family);
      std::cerr << "lrb_fuzz: minimized to n="
                << minimized.instance.num_jobs()
                << ", m=" << minimized.instance.num_procs << " -> "
                << path.string() << "\n";
    }
  }

  std::cout << "lrb_fuzz: " << iteration << " iterations, " << violations
            << " violation(s) in " << timer.millis() / 1000.0 << " s\n";

  if (expect_violation) {
    if (violations == 0) {
      std::cerr << "lrb_fuzz: expected a violation but found none\n";
      return 1;
    }
    if (expect_max_jobs > 0 &&
        largest_repro > static_cast<std::size_t>(expect_max_jobs)) {
      std::cerr << "lrb_fuzz: a minimized repro has " << largest_repro
                << " jobs, above the expected bound " << expect_max_jobs
                << "\n";
      return 1;
    }
    return 0;
  }
  return violations == 0 ? 0 : 1;
}
