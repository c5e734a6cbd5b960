// Contract battery for the solver backend registry (src/solver/,
// docs/solvers.md): name/alias/wire-id round-trips, the wire-id stability
// policy (unique, append-only, never reused), parameter validation,
// cache-key encoding distinctness and normalization, the dispatch switch
// staying faithful to the library entry points for the backends that are
// NOT covered by the legacy engine/service suites (lpt, local-search,
// none, cost-partition), every backend passing the certificate of the
// guarantee its descriptor declares, and golden digests that pin every
// backend's reply bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "algo/cost_partition.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/lpt.h"
#include "algo/m_partition.h"
#include "algo/partition.h"
#include "algo/ptas.h"
#include "check/certify.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "svc/wire.h"
#include "util/rng.h"

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
  // under a scratch-arena context reused across instances alike.
  // (greedy/m-partition/best-of/ptas get the same treatment in
  // test_engine.cpp.)
  MPartitionScratch m_partition_scratch;
  PtasScratch ptas_scratch;
  solver::SolveContext ctx;
  ctx.m_partition = &m_partition_scratch;
  ctx.ptas = &ptas_scratch;
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

/// FNV-1a over bytes: the running digest the golden values below pin.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(std::string_view data) {
    for (const char c : data) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t value) {
    const auto u = static_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((u >> shift) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void result(const RebalanceResult& r) {
    bytes(svc::encode_solve_reply_payload(r));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// The golden input set: the 32- and 128-job mixed-corpus instances among
/// the first 100 indices of two seeds (150 instances covering every size
/// distribution and placement; the 512-job tier would take the test past
/// its 5 s budget in a Debug build), then 1000 tie-heavy random ones
/// (sizes 0-5, costs 0-3, 1-6 processors, 0-24 jobs) where equal sizes,
/// zero sizes and empty processors are the rule.
std::vector<Instance> golden_instances() {
  std::vector<Instance> out;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (std::size_t index = 0; index < 100; ++index) {
      Instance instance = mixed_corpus_instance(index, seed);
      if (instance.num_jobs() <= 128) out.push_back(std::move(instance));
    }
  }
  Rng rng(0x601de9);
  for (int i = 0; i < 1000; ++i) {
    const auto m = static_cast<ProcId>(rng.uniform_int(1, 6));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 24));
    std::vector<Size> sizes(n);
    std::vector<Cost> costs(n);
    std::vector<ProcId> initial(n);
    for (std::size_t j = 0; j < n; ++j) {
      sizes[j] = rng.uniform_int(0, 5);
      costs[j] = rng.uniform_int(0, 3);
      initial[j] = static_cast<ProcId>(rng.uniform_int(0, m - 1));
    }
    out.push_back(make_instance(std::move(sizes), std::move(costs),
                                std::move(initial), m));
  }
  return out;
}

std::vector<std::int64_t> golden_ks(const Instance& instance) {
  const auto n = static_cast<std::int64_t>(instance.num_jobs());
  return {0, 1, std::max<std::int64_t>(1, n / 4), n / 2, n + 3};
}

TEST(SolverGolden, RepliesMatchThePinnedDigests) {
  // Pins every backend's reply bytes, and the library entry points behind
  // them, to fixed digests. The expected values were produced by running
  // this test body on the commit before the solvers shared one
  // per-processor size order, so any change in a solver's output (a tie
  // broken differently, a stale arena read) shows up here.
  const std::vector<Instance> instances = golden_instances();
  std::vector<Digest> backend_digests(solver::kNumBackends);
  Digest library;
  for (const Instance& instance : instances) {
    for (const std::int64_t k : golden_ks(instance)) {
      for (const auto& backend : solver::all_backends()) {
        // The PTAS and cost-PARTITION are slow on larger instances.
        if ((backend.id == BackendId::kPtas && instance.num_jobs() > 12) ||
            (backend.id == BackendId::kCostPartition &&
             instance.num_jobs() > 32)) {
          continue;
        }
        const SolverSpec spec(backend.id, {.budget = 2 * k});
        backend_digests[static_cast<std::size_t>(backend.id)].result(
            solver::solve_serial(spec, instance, k));
      }
      for (const GreedyOrder order :
           {GreedyOrder::kAsRemoved, GreedyOrder::kLargestFirst,
            GreedyOrder::kSmallestFirst}) {
        GreedyStats stats;
        library.result(greedy_rebalance(instance, k, order, &stats));
        library.i64(stats.g1);
        library.i64(stats.removed);
      }
      library.i64(k_removal_bound(instance, k));
      library.i64(combined_lower_bound(instance, k));
      MPartitionStats stats;
      library.result(m_partition_rebalance(instance, k, &stats));
      library.i64(stats.accepted_threshold);
      library.i64(stats.start_threshold);
      library.i64(stats.removals);
      library.i64(static_cast<std::int64_t>(stats.guesses_evaluated));
    }
    const Size max_job = instance.max_job();
    for (const Size threshold : {Size{0}, Size{1}, max_job, 2 * max_job,
                                 instance.initial_makespan()}) {
      const PartitionOutcome outcome =
          partition_rebalance_at(instance, threshold);
      library.i64(outcome.feasible ? 1 : 0);
      library.i64(outcome.removals);
      library.i64(outcome.large_total);
      library.i64(outcome.large_extra);
      for (const std::int64_t a : outcome.a) library.i64(a);
      for (const std::int64_t b : outcome.b) library.i64(b);
      library.result(outcome.result);
    }
  }

  const struct {
    BackendId backend;
    const char* digest;
  } expected[] = {{BackendId::kGreedy, "3d0099b60214a5e9"},
                  {BackendId::kMPartition, "8465848a145b123d"},
                  {BackendId::kBestOf, "cf718285c1c06195"},
                  {BackendId::kPtas, "341caa85a9e5f02c"},
                  {BackendId::kLpt, "536fd4d12f3d58e2"},
                  {BackendId::kLocalSearch, "53fd765de81d8333"},
                  {BackendId::kNone, "5173f9408a35ffd7"},
                  {BackendId::kCostPartition, "83f3c7b672832b7c"}};
  ASSERT_EQ(std::size(expected), solver::kNumBackends);
  for (const auto& row : expected) {
    EXPECT_EQ(backend_digests[static_cast<std::size_t>(row.backend)].hex(),
              row.digest)
        << solver::backend_name(row.backend);
  }
  EXPECT_EQ(library.hex(), "82516781ae055186") << "library entry points";
}

}  // namespace
}  // namespace lrb
