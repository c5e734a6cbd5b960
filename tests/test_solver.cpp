// Contract battery for the solver backend registry (src/solver/,
// docs/solvers.md): name/alias/wire-id round-trips, the wire-id stability
// policy (unique, append-only, never reused), parameter validation,
// cache-key encoding distinctness and normalization, the dispatch switch
// staying faithful to the library entry points for the backends that are
// NOT covered by the legacy engine/service suites (lpt, local-search,
// none, cost-partition), and every backend passing the certificate of the
// guarantee its descriptor declares.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "algo/cost_partition.h"
#include "algo/local_search.h"
#include "algo/lpt.h"
#include "check/certify.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "solver/registry.h"
#include "util/thread_pool.h"

namespace lrb {
namespace {

using solver::BackendId;
using solver::SolverSpec;

void expect_same(const RebalanceResult& got, const RebalanceResult& want,
                 const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.makespan, want.makespan) << label;
  EXPECT_EQ(got.moves, want.moves) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.threshold, want.threshold) << label;
}

TEST(SolverRegistry, EveryBackendIdHasADescriptor) {
  const auto backends = solver::all_backends();
  ASSERT_EQ(backends.size(), solver::kNumBackends);
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(backends[i].id), i)
        << "descriptor table out of BackendId order at slot " << i;
    EXPECT_STRNE(backends[i].name, "") << "slot " << i;
  }
}

TEST(SolverRegistry, NamesAndAliasesRoundTrip) {
  for (const auto& backend : solver::all_backends()) {
    BackendId parsed{};
    ASSERT_TRUE(solver::parse_backend(backend.name, &parsed)) << backend.name;
    EXPECT_EQ(parsed, backend.id) << backend.name;
    EXPECT_STREQ(solver::backend_name(backend.id), backend.name);
    for (const auto alias : backend.aliases) {
      BackendId via_alias{};
      ASSERT_TRUE(solver::parse_backend(alias, &via_alias)) << alias;
      EXPECT_EQ(via_alias, backend.id) << alias;
    }
  }
  // The documented alias table (docs/solvers.md) resolves as promised.
  const struct {
    const char* alias;
    BackendId want;
  } aliases[] = {{"mpartition", BackendId::kMPartition},
                 {"best", BackendId::kBestOf},
                 {"bestof", BackendId::kBestOf},
                 {"lpt-full", BackendId::kLpt},
                 {"ls", BackendId::kLocalSearch},
                 {"mp-ls", BackendId::kLocalSearch}};
  for (const auto& alias : aliases) {
    BackendId parsed{};
    ASSERT_TRUE(solver::parse_backend(alias.alias, &parsed)) << alias.alias;
    EXPECT_EQ(parsed, alias.want) << alias.alias;
  }
}

TEST(SolverRegistry, UnknownNamesAreRejectedAndDoNotTouchOut) {
  for (const char* bad : {"nope", "", "GREEDY", "best_of", "m partition",
                          "greedy ", " ptas", "ptas2", "LPT", "local search"}) {
    BackendId parsed = BackendId::kPtas;
    EXPECT_FALSE(solver::parse_backend(bad, &parsed)) << "'" << bad << "'";
    EXPECT_EQ(parsed, BackendId::kPtas) << "'" << bad << "'";
  }
}

TEST(SolverRegistry, WireIdsAreUniqueStableAndNeverReused) {
  // The stability policy (docs/solvers.md): a backend's wire id is its
  // enumerator value, the first four match the retired engine::Algo byte
  // values, and ids are append-only. Renumbering any entry breaks every
  // pinned wire frame and cache key — this test is the tripwire.
  std::set<std::uint8_t> seen;
  for (const auto& backend : solver::all_backends()) {
    EXPECT_TRUE(seen.insert(backend.wire_id).second)
        << "duplicate wire id " << int{backend.wire_id};
    EXPECT_EQ(backend.wire_id, static_cast<std::uint8_t>(backend.id))
        << backend.name;
  }
  EXPECT_EQ(solver::descriptor(BackendId::kGreedy).wire_id, 0);
  EXPECT_EQ(solver::descriptor(BackendId::kMPartition).wire_id, 1);
  EXPECT_EQ(solver::descriptor(BackendId::kBestOf).wire_id, 2);
  EXPECT_EQ(solver::descriptor(BackendId::kPtas).wire_id, 3);
  EXPECT_EQ(solver::descriptor(BackendId::kLpt).wire_id, 4);
  EXPECT_EQ(solver::descriptor(BackendId::kLocalSearch).wire_id, 5);
  EXPECT_EQ(solver::descriptor(BackendId::kNone).wire_id, 6);
  EXPECT_EQ(solver::descriptor(BackendId::kCostPartition).wire_id, 7);
}

TEST(SolverRegistry, WireIdLookupCoversExactlyTheRegisteredIds) {
  for (const auto& backend : solver::all_backends()) {
    const auto* found = solver::backend_by_wire_id(backend.wire_id);
    ASSERT_NE(found, nullptr) << backend.name;
    EXPECT_EQ(found->id, backend.id);
    EXPECT_TRUE(solver::is_valid_wire_id(backend.wire_id));
  }
  for (int id = static_cast<int>(solver::kNumBackends); id <= 255; ++id) {
    EXPECT_EQ(solver::backend_by_wire_id(static_cast<std::uint8_t>(id)),
              nullptr)
        << id;
    EXPECT_FALSE(solver::is_valid_wire_id(static_cast<std::uint8_t>(id)));
  }
}

TEST(SolverRegistry, BackendListJoinsEveryCanonicalName) {
  EXPECT_EQ(solver::backend_list(),
            "greedy|m-partition|best-of|ptas|lpt|local-search|none|"
            "cost-partition");
}

TEST(SolverRegistry, ValidateSpecRejectsOutOfBoundsParams) {
  for (const auto& backend : solver::all_backends()) {
    SolverSpec spec(backend.id);
    EXPECT_FALSE(solver::validate_spec(spec).has_value()) << backend.name;

    spec = SolverSpec(backend.id, {.eps = 0.0});
    EXPECT_TRUE(solver::validate_spec(spec).has_value()) << backend.name;
    spec = SolverSpec(backend.id, {.eps = -0.5});
    EXPECT_TRUE(solver::validate_spec(spec).has_value()) << backend.name;
    spec = SolverSpec(
        backend.id, {.eps = std::numeric_limits<double>::quiet_NaN()});
    EXPECT_TRUE(solver::validate_spec(spec).has_value()) << backend.name;
    spec = SolverSpec(backend.id,
                      {.eps = std::numeric_limits<double>::infinity()});
    EXPECT_TRUE(solver::validate_spec(spec).has_value()) << backend.name;
    spec = SolverSpec(backend.id, {.budget = -1});
    EXPECT_TRUE(solver::validate_spec(spec).has_value()) << backend.name;

    spec = SolverSpec(backend.id, {.budget = 0, .eps = 0.25});
    EXPECT_FALSE(solver::validate_spec(spec).has_value()) << backend.name;
  }
}

TEST(SolverRegistry, CacheKeyParamsSeparateBackendsAndConsumedKnobs) {
  const auto key_of = [](const SolverSpec& spec) {
    std::string out;
    solver::encode_key_params(spec, &out);
    return out;
  };
  // Distinct backends never share a key, whatever the params.
  std::set<std::string> keys;
  for (const auto& backend : solver::all_backends()) {
    EXPECT_TRUE(keys.insert(key_of(SolverSpec(backend.id))).second)
        << backend.name;
  }
  // PTAS consumes budget and eps: each distinct value is a distinct key.
  EXPECT_NE(key_of(SolverSpec(BackendId::kPtas, {.eps = 0.5})),
            key_of(SolverSpec(BackendId::kPtas, {.eps = 0.25})));
  EXPECT_NE(key_of(SolverSpec(BackendId::kPtas, {.budget = 7})),
            key_of(SolverSpec(BackendId::kPtas, {.budget = 8})));
  // Backends that ignore the knobs normalize them away: one shared entry
  // across every budget/eps value (docs/caching.md).
  for (const BackendId backend :
       {BackendId::kGreedy, BackendId::kMPartition, BackendId::kBestOf,
        BackendId::kLpt, BackendId::kLocalSearch, BackendId::kNone}) {
    EXPECT_EQ(key_of(SolverSpec(backend, {.budget = 123, .eps = 0.125})),
              key_of(SolverSpec(backend)))
        << solver::backend_name(backend);
    const solver::SolverParams norm =
        solver::normalized_params(SolverSpec(backend, {.budget = 9, .eps = 2}));
    EXPECT_EQ(norm, solver::SolverParams{})
        << solver::backend_name(backend);
  }
  // cost-PARTITION consumes the budget only: its knapsack eps is fixed.
  EXPECT_NE(key_of(SolverSpec(BackendId::kCostPartition, {.budget = 7})),
            key_of(SolverSpec(BackendId::kCostPartition, {.budget = 8})));
  EXPECT_EQ(key_of(SolverSpec(BackendId::kCostPartition, {.eps = 0.25})),
            key_of(SolverSpec(BackendId::kCostPartition)));
  EXPECT_EQ(solver::normalized_params(
                SolverSpec(BackendId::kCostPartition, {.budget = 9, .eps = 2})),
            (solver::SolverParams{.budget = 9}));
  // And the key layout is fixed-width: backend byte + two u64 fields.
  EXPECT_EQ(key_of(SolverSpec(BackendId::kPtas)).size(), 1u + 8u + 8u);
}

TEST(SolverRegistry, NewBackendsMatchTheirLibraryEntryPoints) {
  // The dispatch switch must be faithful: registry solves of the
  // registry-born backends equal the direct library calls, serial and
  // under a forced-parallel context alike. (greedy/m-partition/best-of/
  // ptas get the same treatment in test_engine.cpp.)
  ThreadPool pool(4);
  solver::SolveContext ctx;
  ctx.pool = &pool;
  ctx.intra_parallel_min_jobs = 1;  // force the parallel scan paths
  for (std::size_t index = 0; index < 12; ++index) {
    const Instance instance = mixed_corpus_instance(index, 0x501fe4);
    const std::int64_t k = static_cast<std::int64_t>(index % 5) + 1;
    const std::string label = "corpus " + std::to_string(index);

    const RebalanceResult lpt =
        solver::solve_serial(BackendId::kLpt, instance, k);
    expect_same(lpt, lpt_schedule(instance), "lpt " + label);
    expect_same(solver::solve(BackendId::kLpt, instance, k, ctx), lpt,
                "lpt ctx " + label);

    const RebalanceResult ls =
        solver::solve_serial(BackendId::kLocalSearch, instance, k);
    expect_same(ls, m_partition_ls_rebalance(instance, k), "ls " + label);
    expect_same(solver::solve(BackendId::kLocalSearch, instance, k, ctx), ls,
                "ls ctx " + label);

    expect_same(solver::solve_serial(BackendId::kNone, instance, k),
                no_move_result(instance), "none " + label);

    const Cost budget = 3 * k;
    const SolverSpec cost_partition(BackendId::kCostPartition,
                                    {.budget = budget});
    CostPartitionOptions options;
    options.budget = budget;
    const RebalanceResult cp =
        solver::solve_serial(cost_partition, instance, k);
    expect_same(cp, cost_partition_rebalance(instance, options),
                "cost-partition " + label);
    expect_same(solver::solve(cost_partition, instance, k, ctx), cp,
                "cost-partition ctx " + label);

    // Capability flags tell the truth: lpt reassigns from scratch (ignores
    // k), local-search honors the k-move bound.
    EXPECT_FALSE(solver::descriptor(BackendId::kLpt).respects_k);
    EXPECT_TRUE(solver::descriptor(BackendId::kLocalSearch).respects_k);
    EXPECT_LE(ls.moves, std::max<std::int64_t>(k, 0)) << label;
  }
}

TEST(SolverRegistry, EveryBackendDeclaresThePapersGuarantee) {
  // The tripwire for the guarantee column of docs/solvers.md: backends that
  // share a proof share a kind.
  using solver::Guarantee;
  const struct {
    BackendId backend;
    Guarantee want;
  } table[] = {{BackendId::kGreedy, Guarantee::kGreedy},
               {BackendId::kMPartition, Guarantee::kPartition},
               {BackendId::kBestOf, Guarantee::kGreedy},
               {BackendId::kPtas, Guarantee::kPtas},
               {BackendId::kLpt, Guarantee::kLpt},
               {BackendId::kLocalSearch, Guarantee::kPartition},
               {BackendId::kNone, Guarantee::kIdentity},
               {BackendId::kCostPartition, Guarantee::kCostPartition}};
  ASSERT_EQ(std::size(table), solver::kNumBackends);
  for (const auto& row : table) {
    EXPECT_EQ(solver::descriptor(row.backend).guarantee, row.want)
        << solver::backend_name(row.backend);
  }
}

TEST(SolverRegistry, EveryBackendPassesTheCertificateItsGuaranteeGives) {
  const auto certify = [](const SolverSpec& spec, const Instance& instance,
                          std::int64_t k, const std::string& label) {
    const RebalanceResult result = solver::solve_serial(spec, instance, k);
    const auto certificate = certify_solution(
        instance, result, guarantee_check(spec, instance, k, result).apriori);
    EXPECT_TRUE(certificate.ok()) << label << "\n" << certificate.to_string();
  };
  for (const auto& backend : solver::all_backends()) {
    if (backend.id == BackendId::kPtas) continue;  // small tier below
    for (std::size_t index = 0; index < 12; ++index) {
      const Instance instance = mixed_corpus_instance(index, 0x9a7a);
      const std::int64_t k = static_cast<std::int64_t>(index % 5) + 1;
      certify(SolverSpec(backend.id, {.budget = 3 * k}), instance, k,
              std::string(backend.name) + " corpus " + std::to_string(index));
    }
  }
  // The PTAS is slow on larger instances: a 12-job one, as SvcLoopback.
  Instance small = mixed_corpus_instance(0, 7);
  small.sizes.resize(12);
  small.initial.resize(12);
  small.move_costs.resize(12);
  certify(SolverSpec(BackendId::kPtas, {.budget = 10, .eps = 0.5}), small, 3,
          "ptas");
}

}  // namespace
}  // namespace lrb
