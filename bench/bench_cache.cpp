// Canonicalizing solution cache bench (docs/caching.md): repeated-
// instance serving workloads — U unique instances, each requested R times
// in shuffled order, solved in tick-sized batches — through two otherwise
// identical BatchSolvers, one with the cache off and one with it on.
//
// Two profiles:
//
//   * "ptas": U unique PTAS requests (the multi-millisecond DP solver the
//     cache exists for). This is the gated profile: --min-speedup applies
//     to its warm speedup.
//   * "best-of": the mixed serving corpus under the default best-of
//     roster, whose solves are only microseconds. Reported for honesty —
//     canonicalize+probe+map overhead is the same order as the solve
//     itself there, so the cache roughly breaks even; it is not gated.
//
// Cached numbers are the warm steady state (min over reps after a cold
// first pass, reported separately); the interleaved min-over-reps
// protocol mirrors bench_ptas so scheduler noise on a shared runner
// degrades both sides of the ratio together. Every unique instance's
// cached reply is byte-compared against engine::cached_serial_reference
// before any number is reported: a fast wrong cache must fail the bench,
// not win it.
//
//   bench_cache                                  # both profiles to stdout
//   bench_cache --smoke                          # tiny run (ctest bench-smoke)
//   bench_cache --json bench/BENCH_cache.json --min-speedup 5   # CI gate

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/version.h"

namespace {

using namespace lrb;

constexpr std::size_t kTick = 64;  // requests per solve_items() batch
constexpr double kPtasEps = 0.4;

struct Workload {
  std::string name;
  solver::SolverSpec spec;
  std::size_t uniques = 0;
  std::size_t repeats = 0;
  std::vector<Instance> instances;  // one per unique
  std::vector<std::int64_t> ks;     // one move budget per unique
  std::vector<std::size_t> order;   // uniques * repeats, shuffled
};

void fill_order(Workload& w) {
  w.order.reserve(w.uniques * w.repeats);
  for (std::size_t r = 0; r < w.repeats; ++r) {
    for (std::size_t i = 0; i < w.uniques; ++i) w.order.push_back(i);
  }
  Rng rng(42);
  shuffle(std::span<std::size_t>(w.order), rng);
}

/// The gated profile: small instances, expensive solver (the same corpus
/// shape bench_ptas measures the DP engine on).
Workload ptas_workload(std::size_t uniques, std::size_t repeats) {
  Workload w;
  w.name = "ptas";
  w.spec = solver::SolverSpec(solver::BackendId::kPtas, {.eps = kPtasEps});
  w.uniques = uniques;
  w.repeats = repeats;
  for (std::uint64_t i = 0; i < uniques; ++i) {
    GeneratorOptions gen;
    gen.num_jobs = 14;
    gen.num_procs = 4;
    gen.min_size = 1;
    gen.max_size = 100;
    gen.size_dist = static_cast<SizeDistribution>(i % 5);
    gen.placement = static_cast<PlacementPolicy>((i / 5) % 5);
    gen.max_cost = 10;
    w.instances.push_back(random_instance(gen, 9100 + i));
    w.ks.push_back(static_cast<std::int64_t>(gen.num_jobs) / 4);
  }
  fill_order(w);
  return w;
}

/// The informational profile: the shared serving corpus under best-of.
Workload best_of_workload(std::size_t uniques, std::size_t repeats) {
  Workload w;
  w.name = "best-of";
  w.spec = solver::BackendId::kBestOf;
  w.uniques = uniques;
  w.repeats = repeats;
  for (std::size_t i = 0; i < uniques; ++i) {
    w.instances.push_back(mixed_corpus_instance(i, 0xcac4e));
    w.ks.push_back(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(w.instances.back().num_jobs()) / 4));
  }
  fill_order(w);
  return w;
}

engine::BatchSolver::TickItem make_item(const Workload& w, std::size_t idx) {
  engine::BatchSolver::TickItem item;
  item.instance = &w.instances[idx];
  item.k = w.ks[idx];
  item.spec = w.spec;
  return item;
}

/// One full pass over the workload in tick-sized batches; returns seconds.
double run_pass(engine::BatchSolver& solver, const Workload& w) {
  std::vector<engine::BatchSolver::TickItem> items;
  items.reserve(kTick);
  Timer timer;
  for (std::size_t begin = 0; begin < w.order.size(); begin += kTick) {
    const std::size_t end = std::min(begin + kTick, w.order.size());
    items.clear();
    for (std::size_t pos = begin; pos < end; ++pos) {
      items.push_back(make_item(w, w.order[pos]));
    }
    const auto results = solver.solve_items(items);
    if (results.size() != items.size()) {
      std::cerr << "bench_cache: solve_items returned " << results.size()
                << " results for " << items.size() << " items\n";
      std::exit(1);
    }
  }
  return timer.seconds();
}

/// Every unique instance through the cache-enabled solver (now warm) vs
/// the canonical-solve serial reference. Returns false on any field diff.
bool verify_byte_identity(engine::BatchSolver& cached, const Workload& w) {
  bool ok = true;
  for (std::size_t i = 0; i < w.uniques; ++i) {
    const RebalanceResult want = engine::cached_serial_reference(
        w.spec, w.instances[i], w.ks[i]);
    const engine::BatchSolver::TickItem item = make_item(w, i);
    const auto got = cached.solve_items({&item, 1});
    if (got.size() != 1 || got[0].assignment != want.assignment ||
        got[0].makespan != want.makespan || got[0].moves != want.moves ||
        got[0].cost != want.cost || got[0].threshold != want.threshold) {
      std::cerr << "bench_cache: cached " << w.name << " reply for unique "
                << i << " differs from cached_serial_reference\n";
      ok = false;
    }
  }
  return ok;
}

struct ProfileResult {
  std::string name;
  std::size_t uniques = 0;
  std::size_t repeats = 0;
  std::size_t requests = 0;
  double uncached_best = 0.0;
  double cold_seconds = 0.0;
  double cached_best = 0.0;
  double speedup_warm = 0.0;
  double speedup_cold = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  bool byte_identical = false;
};

ProfileResult run_profile(const Workload& w, int reps) {
  engine::BatchOptions uncached_options;
  uncached_options.workers = 4;
  obs::Registry uncached_registry;
  uncached_options.metrics = &uncached_registry;
  engine::BatchSolver uncached(uncached_options);

  engine::BatchOptions cached_options = uncached_options;
  cached_options.cache_bytes = std::size_t{64} << 20;
  obs::Registry cached_registry;
  cached_options.metrics = &cached_registry;
  engine::BatchSolver cached(cached_options);

  // One pass each before timing: warms the uncached solver's scratch
  // arenas and fills the cache. The cached side's first pass IS the cold
  // number: it misses once per unique instance, and every other request
  // for that instance — in the same tick or a later one — hits or waits
  // for that one solve through the cache's single-flight, which is part
  // of the repeated-instance serving path being measured.
  (void)run_pass(uncached, w);
  const double cold_seconds = run_pass(cached, w);

  double uncached_best = 0.0;
  double cached_best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    // Interleaved so a load spike degrades both sides of the ratio.
    const double u = run_pass(uncached, w);
    const double c = run_pass(cached, w);
    if (rep == 0 || u < uncached_best) uncached_best = u;
    if (rep == 0 || c < cached_best) cached_best = c;
  }

  ProfileResult out;
  out.name = w.name;
  out.uniques = w.uniques;
  out.repeats = w.repeats;
  out.requests = w.order.size();
  out.uncached_best = uncached_best;
  out.cold_seconds = cold_seconds;
  out.cached_best = cached_best;
  out.speedup_warm = cached_best > 0.0 ? uncached_best / cached_best : 0.0;
  out.speedup_cold = cold_seconds > 0.0 ? uncached_best / cold_seconds : 0.0;
  out.hits = cached_registry.counter("cache.hits").value();
  out.misses = cached_registry.counter("cache.misses").value();
  out.evictions = cached_registry.counter("cache.evictions").value();
  out.byte_identical = verify_byte_identity(cached, w);
  return out;
}

void print_profile(const ProfileResult& p) {
  const double requests = static_cast<double>(p.requests);
  std::cout << "profile " << p.name << " (" << p.uniques << " uniques x "
            << p.repeats << " repeats = " << p.requests << " requests, tick "
            << kTick << ")\n"
            << "  uncached:    " << p.uncached_best << " s  ("
            << requests / p.uncached_best << " req/s)\n"
            << "  cached cold: " << p.cold_seconds
            << " s  (first pass: one solve per unique, the rest wait or hit)\n"
            << "  cached warm: " << p.cached_best << " s  ("
            << requests / p.cached_best << " req/s)\n"
            << "  speedup: warm " << p.speedup_warm << "x, cold "
            << p.speedup_cold << "x;  cache " << p.hits << " hits / "
            << p.misses << " misses / " << p.evictions << " evictions\n"
            << "  byte-identity vs cached_serial_reference: "
            << (p.byte_identical ? "OK" : "FAIL") << "\n";
}

void emit_profile_json(std::ostream& json, const ProfileResult& p) {
  const double requests = static_cast<double>(p.requests);
  json << "  \"" << p.name << "\": {\n"
       << "    \"unique_instances\": " << p.uniques << ",\n"
       << "    \"repeats\": " << p.repeats << ",\n"
       << "    \"requests\": " << p.requests << ",\n"
       << "    \"uncached\": {\"best_seconds\": " << p.uncached_best
       << ", \"requests_per_sec\": " << requests / p.uncached_best << "},\n"
       << "    \"cached_cold\": {\"seconds\": " << p.cold_seconds << "},\n"
       << "    \"cached_warm\": {\"best_seconds\": " << p.cached_best
       << ", \"requests_per_sec\": " << requests / p.cached_best << "},\n"
       << "    \"cache\": {\"hits\": " << p.hits << ", \"misses\": "
       << p.misses << ", \"evictions\": " << p.evictions << "},\n"
       << "    \"speedup_warm\": " << p.speedup_warm << ",\n"
       << "    \"speedup_cold\": " << p.speedup_cold << ",\n"
       << "    \"byte_identical\": " << (p.byte_identical ? "true" : "false")
       << "\n  }";
}

int run_bench(const std::string& json_path, double min_speedup) {
  using namespace lrb::bench;
  const int reps = smoke_cap(3, 1);
  const ProfileResult ptas = run_profile(
      ptas_workload(smoke_cap<std::size_t>(8, 3), smoke_cap<std::size_t>(16, 4)),
      reps);
  const ProfileResult best_of = run_profile(
      best_of_workload(smoke_cap<std::size_t>(12, 4),
                       smoke_cap<std::size_t>(16, 4)),
      reps);

  std::cout << "solution-cache bench (eps=" << kPtasEps << " for ptas, "
            << reps << " reps, min of reps)\n";
  print_profile(ptas);
  print_profile(best_of);

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "bench_cache: cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n"
         << "  \"schema\": \"" << kCacheBenchSchema << "\",\n"
         << "  \"tick\": " << kTick << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"ptas_eps\": " << kPtasEps << ",\n"
         << "  \"gated_profile\": \"ptas\",\n";
    emit_profile_json(json, ptas);
    json << ",\n";
    emit_profile_json(json, best_of);
    json << "\n}\n";
  }

  if (!ptas.byte_identical || !best_of.byte_identical) return 1;
  if (min_speedup > 0.0 && ptas.speedup_warm < min_speedup) {
    std::cerr << "bench_cache: FAIL speedup " << ptas.speedup_warm
              << " < required " << min_speedup << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      lrb::bench::smoke_mode() = true;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) {
        std::cerr << "bench_cache: --json needs a path\n";
        return 2;
      }
      json_path = v;
    } else if (arg == "--min-speedup") {
      const char* v = next();
      if (v == nullptr) {
        std::cerr << "bench_cache: --min-speedup needs a value\n";
        return 2;
      }
      min_speedup = std::atof(v);
    } else {
      std::cerr << "bench_cache: unknown argument '" << arg
                << "' (accepts --smoke, --json PATH, --min-speedup X)\n";
      return 2;
    }
  }
  return run_bench(json_path, min_speedup);
}
