// lrb_batch: drive the parallel batch-solving engine over an instance
// corpus and report throughput / latency percentiles, optionally writing a
// machine-readable baseline (bench/BENCH_engine.json) and enforcing a
// minimum parallel speedup (the CI perf-regression gate).
//
//   lrb_batch --generate 10000 --seed 7 --algo best-of --workers 1,0
//             --reps 3 --check --json bench/BENCH_engine.json
//
// Flags (defaults in parentheses):
//   --corpus FILE        read concatenated lrb-instance records
//   --generate N (1000)  generate a mixed corpus of N instances instead
//   --seed S (7)         corpus generation seed
//   --algo NAME (best-of)  solver-registry backend (canonical name or
//                          alias, docs/solvers.md): greedy, m-partition,
//                          best-of, ptas, lpt, local-search
//   --k-frac F (0.25)    per-instance move budget = max(1, floor(F * n))
//   --workers LIST (1,0) comma-separated pool sizes to run; 0 = hardware
//   --reps R (3)         timed repetitions per pool size (best rep reported)
//   --check              also re-solve serially and require equal results
//   --min-speedup X      exit 1 unless best-config throughput >= X times
//                        the 1-worker throughput (requires 1 in --workers)
//   --json FILE          write lrb-engine-bench-v1 results
//   --ptas-eps E (1.0)   --ptas-budget B (unlimited)   solver parameters
//                        (only read by backends that use them, e.g. ptas)
//
// Results must be byte-identical across every worker configuration; the
// tool exits 1 (and says so) whenever they are not.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "core/io.h"
#include "engine/batch_solver.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/version.h"

namespace {

using namespace lrb;

int fail(const std::string& message) {
  std::cerr << "lrb_batch: " << message << "\n";
  return 1;
}

bool results_equal(const RebalanceResult& x, const RebalanceResult& y) {
  return x.assignment == y.assignment && x.makespan == y.makespan &&
         x.moves == y.moves && x.cost == y.cost && x.threshold == y.threshold;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << v;
  return os.str();
}

struct RunRecord {
  std::size_t workers_requested = 0;
  std::size_t workers = 0;
  double seconds = 0.0;
  double throughput_ips = 0.0;
  Summary latency;  // milliseconds, best rep
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_batch");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {"corpus", "generate", "seed",     "algo",
                                  "k-frac", "workers",  "reps",     "check",
                                  "min-speedup", "json", "ptas-eps",
                                  "ptas-budget", "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  solver::SolverSpec spec;
  if (!solver::parse_backend(flags.get_or("algo", "best-of"),
                             &spec.backend)) {
    return fail("unknown --algo (want " + solver::backend_list() + ")");
  }
  const double k_frac = flags.get_double("k-frac", 0.25);
  if (k_frac < 0.0) return fail("--k-frac must be >= 0");
  const auto reps = static_cast<std::size_t>(flags.get_int("reps", 3));
  if (reps == 0) return fail("--reps must be >= 1");
  spec.params.eps = flags.get_double("ptas-eps", 1.0);
  spec.params.budget = flags.get_int("ptas-budget", kInfCost);
  if (const auto problem = solver::validate_spec(spec)) {
    return fail(*problem);
  }

  // ---- Worker configurations. ----
  std::vector<std::size_t> worker_list;
  {
    std::stringstream ss(flags.get_or("workers", "1,0"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      const auto workers = parse_count(item);
      if (!workers) {
        return fail("--workers wants worker counts >= 0, like 1,2,4");
      }
      worker_list.push_back(static_cast<std::size_t>(*workers));
    }
    if (worker_list.empty()) return fail("--workers list is empty");
  }

  // ---- Corpus. ----
  std::vector<Instance> instances;
  std::string corpus_source;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  if (const auto path = flags.get("corpus")) {
    corpus_source = *path;
    std::ifstream in(*path);
    if (!in) return fail("cannot open corpus '" + *path + "'");
    std::string error;
    while (in >> std::ws, !in.eof()) {
      auto instance = read_instance(in, &error);
      if (!instance) return fail("corpus parse error: " + error);
      instances.push_back(std::move(*instance));
    }
    if (instances.empty()) return fail("corpus '" + *path + "' is empty");
  } else {
    const auto count = static_cast<std::size_t>(flags.get_int("generate", 1000));
    if (count == 0) return fail("--generate must be >= 1");
    corpus_source = "generated";
    instances.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      instances.push_back(mixed_corpus_instance(i, seed));
    }
  }
  std::vector<std::int64_t> ks(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ks[i] = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               k_frac * static_cast<double>(instances[i].num_jobs())));
  }

  // ---- Runs. ----
  std::vector<RunRecord> runs;
  std::vector<RebalanceResult> reference;
  bool identical = true;
  for (const std::size_t requested : worker_list) {
    engine::BatchOptions options;
    options.workers = requested;
    options.spec = spec;
    engine::BatchSolver solver(options);

    RunRecord record;
    record.workers_requested = requested;
    record.workers = solver.workers();
    std::vector<RebalanceResult> results;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<double> latencies;
      const auto begin = std::chrono::steady_clock::now();
      auto rep_results = solver.solve(instances, ks, &latencies);
      const auto end = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(end - begin).count();
      const double ips =
          static_cast<double>(instances.size()) / std::max(seconds, 1e-12);
      if (rep == 0 || ips > record.throughput_ips) {
        record.seconds = seconds;
        record.throughput_ips = ips;
        record.latency = summarize(latencies);
      }
      if (rep == 0) {
        results = std::move(rep_results);
      } else if (!std::equal(results.begin(), results.end(),
                             rep_results.begin(), rep_results.end(),
                             results_equal)) {
        identical = false;
        std::cerr << "lrb_batch: results differ across repetitions at "
                  << record.workers << " workers\n";
      }
    }
    if (reference.empty()) {
      reference = std::move(results);
    } else if (!std::equal(reference.begin(), reference.end(),
                           results.begin(), results.end(), results_equal)) {
      identical = false;
      std::cerr << "lrb_batch: results differ between worker configs ("
                << runs.front().workers << " vs " << record.workers << ")\n";
    }
    runs.push_back(record);
    std::cout << "workers=" << record.workers << " (requested " << requested
              << "): " << fmt(record.throughput_ips) << " inst/s, latency ms"
              << " p50=" << fmt(record.latency.p50)
              << " p90=" << fmt(record.latency.p90)
              << " p99=" << fmt(record.latency.p99) << "\n";
  }

  // ---- Optional serial cross-check against the library entry points.
  // Every mismatch counts (first few are printed); any mismatch makes the
  // tool exit non-zero after the JSON baseline is still written, so CI
  // gets both the failure and the evidence. ----
  std::size_t check_mismatches = 0;
  if (flags.has("check")) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const RebalanceResult serial =
          engine::solve_serial_reference(spec, instances[i], ks[i]);
      if (!results_equal(serial, reference[i])) {
        ++check_mismatches;
        if (check_mismatches <= 10) {
          std::cerr << "lrb_batch: engine result differs from the serial "
                       "entry point at instance "
                    << i << "\n";
        }
      }
    }
    if (check_mismatches == 0) {
      std::cout << "serial cross-check: OK (" << instances.size()
                << " instances)\n";
    } else {
      std::cerr << "lrb_batch: serial cross-check FAILED ("
                << check_mismatches << " of " << instances.size()
                << " instances differ)\n";
    }
  }

  double speedup = 0.0;
  {
    double base = 0.0;
    double best = 0.0;
    for (const auto& run : runs) {
      if (run.workers == 1) base = std::max(base, run.throughput_ips);
      best = std::max(best, run.throughput_ips);
    }
    if (base > 0.0) speedup = best / base;
  }
  if (speedup > 0.0) {
    std::cout << "speedup (best vs 1 worker): " << fmt(speedup) << "x\n";
  }

  // ---- JSON baseline. ----
  if (const auto path = flags.get("json")) {
    std::ofstream out(*path);
    if (!out) return fail("cannot write '" + *path + "'");
    out << "{\n";
    out << "  \"schema\": \"" << kEngineBenchSchema << "\",\n";
    out << "  \"algo\": \"" << solver::backend_name(spec.backend) << "\",\n";
    out << "  \"corpus\": {\"instances\": " << instances.size()
        << ", \"source\": \"" << corpus_source << "\", \"seed\": " << seed
        << ", \"k_frac\": " << fmt(k_frac) << "},\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& run = runs[i];
      out << "    {\"workers_requested\": " << run.workers_requested
          << ", \"workers\": " << run.workers << ", \"seconds\": "
          << fmt(run.seconds) << ", \"throughput_ips\": "
          << fmt(run.throughput_ips) << ",\n"
          << "     \"latency_ms\": {\"mean\": " << fmt(run.latency.mean)
          << ", \"p50\": " << fmt(run.latency.p50) << ", \"p90\": "
          << fmt(run.latency.p90) << ", \"p99\": " << fmt(run.latency.p99)
          << ", \"max\": " << fmt(run.latency.max) << "}}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"speedup_best_vs_1\": " << fmt(speedup) << ",\n";
    out << "  \"identical_across_configs\": "
        << (identical ? "true" : "false") << "\n";
    out << "}\n";
  }

  if (check_mismatches > 0) {
    return fail("serial cross-check found " +
                std::to_string(check_mismatches) + " mismatching instances");
  }
  if (!identical) return fail("determinism violation (see above)");
  if (const auto min_speedup = flags.get("min-speedup")) {
    const double want = flags.get_double("min-speedup", 0.0);
    if (speedup <= 0.0) {
      return fail("--min-speedup needs a 1-worker run in --workers");
    }
    if (speedup < want) {
      return fail("speedup " + fmt(speedup) + "x below required " +
                  fmt(want) + "x");
    }
  }
  return 0;
}
