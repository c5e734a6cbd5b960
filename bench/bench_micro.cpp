// Experiment E13: google-benchmark microbenchmarks of the core data paths -
// load accounting, lower bounds, threshold generation, the two rebalancers,
// and the knapsack kernels that power the cost variants.

#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "algo/greedy.h"
#include "algo/m_partition.h"
#include "algo/thresholds.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/lower_bounds.h"
#include "algo/two_proc_exact.h"
#include "core/plan.h"
#include "diffusion/graph.h"
#include "diffusion/local_exchange.h"
#include "knapsack/knapsack.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/trace.h"

namespace {

using namespace lrb;

Instance bench_instance(std::int64_t n) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(n);
  gen.num_procs = 32;
  gen.max_size = 5000;
  gen.placement = PlacementPolicy::kHotspot;
  return random_instance(gen, 99);
}

void BM_Makespan(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(makespan(inst, inst.initial));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Makespan)->Arg(1 << 10)->Arg(1 << 14);

void BM_KRemovalBound(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(k_removal_bound(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_KRemovalBound)->Arg(1 << 10)->Arg(1 << 14);

void BM_CandidateThresholds(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(candidate_thresholds(inst));
  }
}
BENCHMARK(BM_CandidateThresholds)->Arg(1 << 10)->Arg(1 << 14);

void BM_Greedy(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_rebalance(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_Greedy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_MPartition(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m_partition_rebalance(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_MPartition)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_KnapsackExact(benchmark::State& state) {
  Rng rng(5);
  std::vector<KnapsackItem> items(static_cast<std::size_t>(state.range(0)));
  for (auto& item : items) {
    item.size = rng.uniform_int(1, 100);
    item.value = rng.uniform_int(1, 50);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(knapsack_exact(items, 500));
  }
}
BENCHMARK(BM_KnapsackExact)->Arg(32)->Arg(256);

void BM_KnapsackSizeRelaxed(benchmark::State& state) {
  Rng rng(5);
  std::vector<KnapsackItem> items(static_cast<std::size_t>(state.range(0)));
  for (auto& item : items) {
    item.size = rng.uniform_int(1, 1'000'000);
    item.value = rng.uniform_int(1, 50);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(knapsack_size_relaxed(items, 5'000'000, 0.1));
  }
}
BENCHMARK(BM_KnapsackSizeRelaxed)->Arg(32)->Arg(256);

void BM_TwoProcExactDp(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 2;
  gen.max_size = 500;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_proc_exact_rebalance(inst, state.range(0) / 4));
  }
}
BENCHMARK(BM_TwoProcExactDp)->Arg(32)->Arg(128);

void BM_MakePlanMonotone(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 16;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 5);
  const auto result = greedy_rebalance(inst, state.range(0) / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_plan(inst, result.assignment, PlanOrder::kMonotone));
  }
}
BENCHMARK(BM_MakePlanMonotone)->Arg(256)->Arg(1024);

void BM_LocalExchangeRing(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 16;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 7);
  const auto graph = diffusion::ring_graph(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diffusion::local_exchange_rebalance(inst, graph));
  }
}
BENCHMARK(BM_LocalExchangeRing)->Arg(256)->Arg(1024);

void BM_OnlineArriveDepart(benchmark::State& state) {
  stream::TraceOptions opt;
  opt.num_events = static_cast<std::size_t>(state.range(0));
  opt.departure_fraction = 0.4;
  Instance empty;
  empty.num_procs = 16;
  // The default trigger never fires: this times arrivals and departures.
  const stream::DeltaLog log = stream::delta_log_from_trace(
      empty, stream::random_trace(opt, 9), stream::TriggerConfig{});
  const stream::SolveFn solve = stream::serial_reference_solver(false);
  for (auto _ : state) {
    stream::ClusterSession session =
        stream::ClusterSession::open(log.initial, log.trigger, nullptr)
            .value();
    for (std::size_t i = 0; i < log.deltas.size(); ++i) {
      benchmark::DoNotOptimize(session.step(log.deltas[i], i + 1, solve));
    }
    benchmark::DoNotOptimize(session.makespan());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnlineArriveDepart)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the binary honors the harness-wide --smoke
// contract: strip the flag and pin min_time to ~0 so every benchmark runs a
// single short iteration batch instead of the default wall-clock budget.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
