#include "solver/registry.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

#include "algo/cost_partition.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/lpt.h"
#include "algo/m_partition.h"
#include "algo/ptas.h"

namespace lrb::solver {
namespace {

/// The context's M-PARTITION arena (or `local` when it has none) with its
/// size order built for `instance`: the one per-processor sort of an
/// m-partition, best-of or local-search solve.
MPartitionScratch& ordered_arena(const Instance& instance,
                                 const SolveContext& ctx,
                                 MPartitionScratch& local) {
  MPartitionScratch& arena =
      ctx.m_partition != nullptr ? *ctx.m_partition : local;
  arena.order.build(instance);
  return arena;
}

constexpr std::string_view kMPartitionAliases[] = {"mpartition"};
constexpr std::string_view kBestOfAliases[] = {"best", "bestof"};
constexpr std::string_view kLptAliases[] = {"lpt-full"};
constexpr std::string_view kLocalSearchAliases[] = {"ls", "mp-ls"};

const BackendDescriptor kBackends[kNumBackends] = {
    {
        .id = BackendId::kGreedy,
        .wire_id = 0,
        .name = "greedy",
        .aliases = {},
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = true,
        .runs_inline = true,
        .guarantee = Guarantee::kGreedy,
    },
    {
        .id = BackendId::kMPartition,
        .wire_id = 1,
        .name = "m-partition",
        .aliases = kMPartitionAliases,
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = true,
        .runs_inline = true,
        .guarantee = Guarantee::kPartition,
    },
    {
        // Returns the better of GREEDY and M-PARTITION, so it is no worse
        // than GREEDY's bound.
        .id = BackendId::kBestOf,
        .wire_id = 2,
        .name = "best-of",
        .aliases = kBestOfAliases,
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = true,
        .runs_inline = true,
        .guarantee = Guarantee::kGreedy,
    },
    {
        .id = BackendId::kPtas,
        .wire_id = 3,
        .name = "ptas",
        .aliases = {},
        .costed = true,
        .budgeted = true,
        .uses_eps = true,
        .respects_k = false,
        .runs_inline = false,
        .guarantee = Guarantee::kPtas,
    },
    {
        .id = BackendId::kLpt,
        .wire_id = 4,
        .name = "lpt",
        .aliases = kLptAliases,
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = false,
        .runs_inline = true,
        .guarantee = Guarantee::kLpt,
    },
    {
        // Local search only ever lowers M-PARTITION's makespan.
        .id = BackendId::kLocalSearch,
        .wire_id = 5,
        .name = "local-search",
        .aliases = kLocalSearchAliases,
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = true,
        .runs_inline = false,
        .guarantee = Guarantee::kPartition,
    },
    {
        .id = BackendId::kNone,
        .wire_id = 6,
        .name = "none",
        .aliases = {},
        .costed = false,
        .budgeted = false,
        .uses_eps = false,
        .respects_k = true,
        .runs_inline = true,
        .guarantee = Guarantee::kIdentity,
    },
    {
        // The knapsack eps and guess step alpha stay at the
        // CostPartitionOptions defaults; the guarantee assumes them.
        .id = BackendId::kCostPartition,
        .wire_id = 7,
        .name = "cost-partition",
        .aliases = {},
        .costed = true,
        .budgeted = true,
        .uses_eps = false,
        .respects_k = false,
        .runs_inline = false,
        .guarantee = Guarantee::kCostPartition,
    },
};

void append_u64(std::string* out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

}  // namespace

std::span<const BackendDescriptor> all_backends() { return kBackends; }

const BackendDescriptor& descriptor(BackendId id) {
  const auto index = static_cast<std::size_t>(id);
  assert(index < kNumBackends);
  return kBackends[index];
}

const BackendDescriptor* find_backend(std::string_view name) {
  for (const BackendDescriptor& backend : kBackends) {
    if (name == backend.name) return &backend;
    for (const std::string_view alias : backend.aliases) {
      if (name == alias) return &backend;
    }
  }
  return nullptr;
}

bool parse_backend(std::string_view name, BackendId* out) {
  const BackendDescriptor* backend = find_backend(name);
  if (backend == nullptr) return false;
  *out = backend->id;
  return true;
}

const char* backend_name(BackendId id) { return descriptor(id).name; }

std::string backend_list() {
  std::string out;
  for (const BackendDescriptor& backend : kBackends) {
    if (!out.empty()) out.push_back('|');
    out += backend.name;
  }
  return out;
}

const BackendDescriptor* backend_by_wire_id(std::uint8_t wire_id) {
  for (const BackendDescriptor& backend : kBackends) {
    if (backend.wire_id == wire_id) return &backend;
  }
  return nullptr;
}

bool is_valid_wire_id(std::uint8_t wire_id) {
  return backend_by_wire_id(wire_id) != nullptr;
}

std::optional<std::string> validate_spec(const SolverSpec& spec) {
  if (!(std::isfinite(spec.params.eps) && spec.params.eps > 0.0)) {
    return "solver eps must be finite and > 0";
  }
  if (spec.params.budget < 0) {
    return "solver budget must be >= 0";
  }
  return std::nullopt;
}

SolverParams normalized_params(const SolverSpec& spec) {
  const BackendDescriptor& backend = descriptor(spec.backend);
  SolverParams out;
  if (backend.budgeted) out.budget = spec.params.budget;
  if (backend.uses_eps) out.eps = spec.params.eps;
  return out;
}

void encode_key_params(const SolverSpec& spec, std::string* out) {
  const SolverParams params = normalized_params(spec);
  out->push_back(static_cast<char>(descriptor(spec.backend).wire_id));
  append_u64(out, static_cast<std::uint64_t>(params.budget));
  std::uint64_t eps_bits = 0;
  static_assert(sizeof eps_bits == sizeof params.eps);
  std::memcpy(&eps_bits, &params.eps, sizeof eps_bits);
  append_u64(out, eps_bits);
}

RebalanceResult solve(const SolverSpec& spec, const Instance& instance,
                      std::int64_t k, const SolveContext& ctx) {
  switch (spec.backend) {
    case BackendId::kGreedy:
      return greedy_rebalance(instance, k);
    case BackendId::kMPartition: {
      MPartitionScratch local;
      MPartitionScratch& arena = ordered_arena(instance, ctx, local);
      return m_partition_rebalance(instance, arena.order, k, arena);
    }
    case BackendId::kBestOf: {
      // GREEDY and M-PARTITION read one size order; PARTITION wins ties.
      MPartitionScratch local;
      MPartitionScratch& arena = ordered_arena(instance, ctx, local);
      auto greedy = greedy_rebalance(instance, arena.order, k);
      auto partition = m_partition_rebalance(instance, arena.order, k, arena);
      return partition.makespan <= greedy.makespan ? std::move(partition)
                                                   : std::move(greedy);
    }
    case BackendId::kPtas: {
      PtasOptions options;
      options.budget = spec.params.budget;
      options.eps = spec.params.eps;
      PtasResult ptas = ctx.ptas != nullptr
                            ? ptas_rebalance(instance, options, *ctx.ptas)
                            : ptas_rebalance(instance, options);
      if (ctx.gave_up != nullptr) *ctx.gave_up = !ptas.success;
      return std::move(ptas.result);
    }
    case BackendId::kLpt:
      // Full reassignment: LPT ignores both the initial placement and k.
      return lpt_schedule(instance);
    case BackendId::kLocalSearch: {
      // m_partition_ls_rebalance, decomposed so the base solve can use the
      // context's scratch arena (bit-identical to the plain one).
      MPartitionScratch local;
      MPartitionScratch& arena = ordered_arena(instance, ctx, local);
      auto base = m_partition_rebalance(instance, arena.order, k, arena);
      LocalSearchOptions options;
      options.max_moves = k;
      return local_search_improve(instance, base, options);
    }
    case BackendId::kNone:
      return no_move_result(instance);
    case BackendId::kCostPartition: {
      CostPartitionOptions options;
      options.budget = spec.params.budget;
      return cost_partition_rebalance(instance, options);
    }
  }
  assert(false && "unregistered backend");
  return {};
}

RebalanceResult solve_serial(const SolverSpec& spec, const Instance& instance,
                             std::int64_t k) {
  return solve(spec, instance, k, SolveContext{});
}

}  // namespace lrb::solver
